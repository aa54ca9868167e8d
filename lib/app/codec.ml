exception Truncated

module Writer = struct
  (* A writer is an output sink: either a real byte buffer or a pure
     byte counter.  Every codec expresses its wire format once as a
     [write] function over this type; [encode] runs it against a buffer
     sink and [size] against a counting sink, so the two can never
     drift and sizing allocates nothing. *)
  type sink = Buf of Buffer.t | Count

  type t = { sink : sink; mutable written : int }

  let create ?(size_hint = 64) () =
    { sink = Buf (Buffer.create size_hint); written = 0 }

  let counter () = { sink = Count; written = 0 }
  let written t = t.written

  (* Buffer.add_uint8 truncates to the low byte rather than raising, so
     the writer stays total (rsmr-flow) — the mask keeps that visible. *)
  let u8 t v =
    t.written <- t.written + 1;
    match t.sink with
    | Buf b -> Buffer.add_uint8 b (v land 0xFF)
    | Count -> ()

  (* Seven bits a byte over the int's 63-bit pattern, so the writer is
     total and the exact inverse of [Reader.varint]: a negative int takes
     nine bytes, the ninth carrying the sign bit.  A loop over a local ref
     rather than a recursive closure, so no write allocates. *)
  let varint t v =
    let v = ref v in
    while !v land lnot 0x7F <> 0 do
      u8 t (0x80 lor (!v land 0x7F));
      v := !v lsr 7
    done;
    u8 t !v

  (* Zigzag maps the full native-int range, min_int included, onto a
     non-negative 63-bit pattern: the sign lands in bit 0 and the
     magnitude bits are flipped for negatives, so [(v lsl 1) lxor
     (v asr 62)] is the 64-bit [(v << 1) ^ (v >> 63)] with its always-zero
     top bit dropped. *)
  let zigzag t v = varint t ((v lsl 1) lxor (v asr 62))

  let bool t b = u8 t (if b then 1 else 0)

  let float t f =
    let bits = Int64.bits_of_float f in
    for i = 0 to 7 do
      u8 t (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xFF)
    done

  let string t s =
    varint t (String.length s);
    t.written <- t.written + String.length s;
    match t.sink with
    | Buf b -> Buffer.add_string b s
    | Count -> ()

  let option t f = function
    | None -> bool t false
    | Some v ->
      bool t true;
      f t v

  (* A loop rather than [List.iter (f t)], whose partial application
     would allocate a closure per list written. *)
  let rec list_items t f = function
    | [] -> ()
    | x :: tl ->
      f t x;
      list_items t f tl

  let list t f l =
    varint t (List.length l);
    list_items t f l

  (* Length-prefixed sub-message, written straight into the parent sink
     with no intermediate string.  Against a buffer sink the prefix needs
     the body length up front, so the body is measured with a counting
     pass and then written for real.  A counting sink only needs the
     total, so the body is counted once in place and its prefix after
     it. *)
  let nested t f v =
    match t.sink with
    | Buf _ ->
      let c = { sink = Count; written = 0 } in
      f c v;
      varint t c.written;
      let before = t.written in
      f t v;
      if t.written - before <> c.written then
        invalid_arg "Codec.Writer.nested: non-deterministic sub-writer"
    | Count ->
      let before = t.written in
      f t v;
      varint t (t.written - before)

  let contents t =
    match t.sink with
    | Buf b -> Buffer.contents b
    | Count -> invalid_arg "Codec.Writer.contents: counting sink"

  let length t = t.written
end

module Reader = struct
  (* [limit] bounds the readable window so a nested [view] shares the
     parent's backing string instead of copying it out with String.sub. *)
  type t = { data : string; mutable pos : int; limit : int }

  let of_string data = { data; pos = 0; limit = String.length data }

  let u8 t =
    if t.pos >= t.limit then raise Truncated;
    let v = Char.code t.data.[t.pos] in
    t.pos <- t.pos + 1;
    v

  (* At most nine bytes: the ninth's seven bits complete the 63-bit
     pattern, and a tenth is malformed. *)
  let varint t =
    let acc = ref 0 and shift = ref 0 and more = ref true in
    while !more do
      if !shift > 62 then raise Truncated;
      let b = u8 t in
      acc := !acc lor ((b land 0x7F) lsl !shift);
      shift := !shift + 7;
      more := b land 0x80 <> 0
    done;
    !acc

  (* Inverse of [Writer.zigzag]: bit 0 is the sign, the rest the
     magnitude, flipped back for negatives. *)
  let zigzag t =
    let z = varint t in
    (z lsr 1) lxor (- (z land 1))

  let bool t = u8 t <> 0

  let float t =
    let bits = ref 0L in
    for i = 0 to 7 do
      bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (u8 t)) (8 * i))
    done;
    Int64.float_of_bits !bits

  let string t =
    let n = varint t in
    if n < 0 || t.pos + n > t.limit then raise Truncated;
    let s = String.sub t.data t.pos n in
    t.pos <- t.pos + n;
    s

  (* Zero-copy counterpart of [string]: a length-prefixed sub-reader over
     the same backing bytes.  The parent's position skips the window, so
     parent and view never race over the same bytes. *)
  let view t =
    let n = varint t in
    if n < 0 || t.pos + n > t.limit then raise Truncated;
    let v = { data = t.data; pos = t.pos; limit = t.pos + n } in
    t.pos <- t.pos + n;
    v

  let option t f = if bool t then Some (f t) else None

  (* Elements are read in wire order; tail-modulo-cons, like
     [List.init], so a long list does not grow the stack. *)
  let[@tail_mod_cons] rec list_items t f n =
    if n = 0 then []
    else
      let x = f t in
      x :: list_items t f (n - 1)

  (* The count comes off the wire, so a negative one is malformed input,
     not a programming error. *)
  let list t f =
    let n = varint t in
    if n < 0 then raise Truncated;
    list_items t f n

  let at_end t = t.pos >= t.limit
end
