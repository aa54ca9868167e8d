val handle : int list -> int * float
[@@rsmr.deterministic] [@@rsmr.total]

val decode_count : int -> int list
[@@rsmr.total]
