let all =
  [
    Tas.factory;
    Ticket.factory;
    Mcs.factory;
    Clh.factory;
    Peterson_tree.factory;
    Rcas.factory;
    Rstamp.factory;
    Rtournament.factory;
    Katzan_morrison.factory;
    Sublog.factory;
    Epoch_mcs.factory;
  ]

(* Locks whose recover protocol tolerates *individual* process crashes —
   the model of the paper's Theorem 1. *)
let recoverable =
  [
    Rcas.factory;
    Rstamp.factory;
    Rtournament.factory;
    Katzan_morrison.factory;
    Sublog.factory;
  ]

(* Locks for the system-wide crash model (all processes crash together),
   where the paper's lower bound provably does not apply. *)
let system_wide = [ Epoch_mcs.factory ]

let find name =
  List.find_opt (fun f -> f.Rme_sim.Lock_intf.name = name) all

let names () = List.map (fun f -> f.Rme_sim.Lock_intf.name) all
