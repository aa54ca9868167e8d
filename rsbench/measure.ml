(* Measurement helpers shared by the workloads: exact order statistics,
   host clocks, allocation probes and the metric table a run prints. *)

(* Host time is process CPU time (user + system).  The simulator is one
   single-threaded process that does no I/O while it is timed, so CPU
   time is its cost; wall time on a shared host also counts the time the
   process spent descheduled, which is noise, not cost. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

type cost = { cpu_s : float; minor_words : float; minor_collections : int }

let timed f =
  let n0 = (Gc.quick_stat ()).Gc.minor_collections in
  let w0 = Gc.minor_words () in
  let c0 = cpu_now () in
  let r = f () in
  let c1 = cpu_now () in
  let w1 = Gc.minor_words () in
  let n1 = (Gc.quick_stat ()).Gc.minor_collections in
  (r, { cpu_s = c1 -. c0; minor_words = w1 -. w0; minor_collections = n1 - n0 })

(* Nearest-rank percentile over exact samples; [p] in [0, 1]. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median l =
  match sorted_of_list l with
  | [||] -> Float.nan
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles as Python's statistics.quantiles(values, n=4) gives them
   (the default "exclusive" method), so the printed spread matches the
   acceptance check's arithmetic. *)
let quartiles l =
  let a = sorted_of_list l in
  let n = Array.length a in
  if n < 2 then (median l, median l)
  else
    let q k =
      let m = float_of_int (n + 1) *. float_of_int k /. 4.0 in
      let j = max 1 (min (n - 1) (truncate m)) in
      let delta = m -. float_of_int j in
      a.(j - 1) +. ((a.(j) -. a.(j - 1)) *. delta)
    in
    (q 1, q 3)

(* Longest silence a client population sees inside [lo, hi): the largest
   gap between consecutive reply times, counting from [lo] itself so a
   window that opens on an outage is charged for it. *)
let longest_gap sorted_times ~lo ~hi =
  let prev = ref lo and gap = ref 0.0 in
  Array.iter
    (fun t ->
      if t >= lo && t < hi then begin
        if t -. !prev > !gap then gap := t -. !prev;
        prev := t
      end)
    sorted_times;
  Float.max !gap (hi -. !prev)

let top_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* The metric table: every metric a run reports, in insertion order. *)
type table = { mutable rows : (string * float * string) list }

let table () = { rows = [] }
let add t name value unit = t.rows <- (name, value, unit) :: t.rows
let rows t = List.rev t.rows

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* What one workload run hands back to the command line. *)
type result = {
  e2e : table;
  layers : table;
  attempted : int;
  failed : int;
  problems : string list;  (** failed correctness checks, empty when correct *)
  info : (string * string) list;  (** method notes printed with the run *)
}

(* Run [f] (rep number from 1) at least [min_reps] times and then for as
   long as [seconds] of wall time allow, capped at [max_reps]. *)
let repeat ~seconds ~min_reps ~max_reps f =
  let t0 = Unix.gettimeofday () in
  let rec go i acc =
    if i > max_reps || (i > min_reps && Unix.gettimeofday () -. t0 >= seconds) then List.rev acc
    else go (i + 1) (f i :: acc)
  in
  go 1 []

(* Host calibration.  On a shared host the whole machine runs faster or
   slower for tens of seconds at a time, by 20% and more, as neighbours
   come and go.  A fixed loop is timed beside every measurement, and host
   seconds are reported in units of that loop: [reference_s] is what the
   loop took on the machine this benchmark was tuned on.  The loop is
   integer arithmetic with scattered reads and writes over a 256 KB array:
   cache-resident, so its own time varies little; it uses no library code,
   so no change under test can speed it up; and it allocates nothing, so
   garbage left by the measured work cannot slow it. *)
let reference_s = 0.068

let scratch = Array.make (1 lsl 15) 0

let calibration_loop () =
  let mask = Array.length scratch - 1 in
  let x = ref 12345 in
  for i = 1 to 20_000_000 do
    x := ((!x * 1103515245) + 12345 + scratch.(!x land mask)) land 0x3fffffff;
    scratch.((!x lsr 7) land mask) <- i
  done;
  ignore (Sys.opaque_identity !x)

let slowdown () =
  let t0 = cpu_now () in
  calibration_loop ();
  (cpu_now () -. t0) /. reference_s

(* Run [f], timing the calibration loop just before and just after it;
   returns [f]'s result and the host's slowdown factor around it.  Divide
   CPU seconds measured inside [f] by the factor. *)
let calibrated f =
  let k0 = slowdown () in
  let r = f () in
  (r, (k0 +. slowdown ()) /. 2.0)

(* Median and quartiles of a host metric, as printed in the method block. *)
let spread name values =
  let q1, q3 = quartiles values in
  ( name,
    Printf.sprintf "median %.6g q1 %.6g q3 %.6g, n=%d" (median values) q1 q3
      (List.length values) )
