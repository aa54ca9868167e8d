let first l = List.hd l
(* A count read off the wire: List.init rejects a negative one with
   Invalid_argument, which is not a tagged decode error. *)
let counted n = List.init n (fun i -> i)
