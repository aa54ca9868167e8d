type fault =
  | Crash of Rsmr_net.Node_id.t
  | Recover of Rsmr_net.Node_id.t
  | Partition of Rsmr_net.Node_id.t list list
  | Heal

type control = {
  fault : fault -> unit;
  reconfigure : Rsmr_net.Node_id.t list -> unit;
}

let on_network net ~reconfigure =
  let module N = Rsmr_net.Network in
  {
    fault =
      (function
        | Crash n -> N.crash net n
        | Recover n -> N.recover net n
        | Partition groups -> N.partition net groups
        | Heal -> N.heal net);
    reconfigure;
  }

let crash c n = c.fault (Crash n)
let recover c n = c.fault (Recover n)
let heal c = c.fault Heal
let reconfigure c members = c.reconfigure members
