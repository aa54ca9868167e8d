(** Fingerprint film: [Harness.fingerprint] along seeded random walks in
    Scope's [minimal] (plain and mutated) and [minimal,batch=2] scopes,
    and along the mutation's counterexample. *)

val all_lines : unit -> (string * string) list
(** [(key, hex)] per visited state, in walk order; keys read
    [scope[+mutate]#walk@step], [walk] a seed or [cex]. *)
