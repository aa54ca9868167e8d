module W = Rsmr_app.Codec.Writer

type ('o, 'a) sink = {
  capacity : 'o -> int;
  one : 'o -> 'a -> unit;
  many : 'o -> 'a list -> unit;
}

type ('o, 'a) t = {
  engine : Engine.t;
  delay : float;
  max : int;
  sink : ('o, 'a) sink;
  mutable buf : 'a list; (* newest first *)
  mutable len : int; (* List.length buf *)
  mutable timer : Engine.timer option;
}

let create engine ~delay ~max sink =
  { engine; delay; max; sink; buf = []; len = 0; timer = None }

let cancel b = b.timer <- Engine.cancel_slot b.engine b.timer

let rec firstn n = function
  | x :: tl when n > 0 -> x :: firstn (n - 1) tl
  | _ -> []

let rec dropn n = function _ :: tl when n > 0 -> dropn (n - 1) tl | l -> l

let flush b owner =
  let cap = if b.len > 0 then b.sink.capacity owner else 0 in
  if cap > 0 then begin
    (* Take the [min cap len] oldest values; the newest [keep] stay. *)
    let keep = b.len - min cap b.len in
    let taken = List.rev (dropn keep b.buf) in
    b.buf <- firstn keep b.buf;
    b.len <- keep;
    cancel b;
    match taken with
    | [ v ] -> b.sink.one owner v
    | _ -> b.sink.many owner taken
  end

let push b v =
  b.buf <- v :: b.buf;
  b.len <- b.len + 1

let add b owner v =
  if b.delay <= 0.0 && b.len = 0 && b.sink.capacity owner > 0 then
    b.sink.one owner v
  else begin
    push b v;
    if b.delay <= 0.0 || b.len >= b.max then flush b owner
    else if Option.is_none b.timer then
      b.timer <-
        Some
          (Engine.schedule b.engine ~delay:b.delay (fun () ->
               b.timer <- None;
               flush b owner))
  end

let add_all b owner values =
  List.iter (fun v -> push b v) values;
  flush b owner

let pump b owner = if b.len > 0 && Option.is_none b.timer then flush b owner

let park b =
  cancel b;
  let values = List.rev b.buf in
  b.buf <- [];
  b.len <- 0;
  values

let rec mem_list equal v = function
  | [] -> false
  | x :: tl -> equal x v || mem_list equal v tl

let mem b ~equal v = mem_list equal v b.buf

(* Written without building a list: Scope fingerprints every state. *)
let rec write_fwd w item = function
  | [] -> ()
  | x :: tl ->
    item w x;
    write_fwd w item tl

let rec write_rev w item = function
  | [] -> ()
  | x :: tl ->
    write_rev w item tl;
    item w x

let fingerprint w b ~order item =
  W.varint w b.len;
  (match order with
   | `Newest_first -> write_fwd w item b.buf
   | `Oldest_first -> write_rev w item b.buf);
  W.bool w (Engine.slot_pending b.timer)
[@@rsmr.codec.oneway]
