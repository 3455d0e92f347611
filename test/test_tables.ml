(* Golden tables: a fixed selection of experiment tables, rendered with
   Table.render, must match test/tables.expected byte for byte. Any
   change to the simulator, the locks or the adversary that moves a
   number in these tables fails here. *)

module E = Rme_experiments.Experiments
module Engine = Rme_experiments.Engine
module Table = Rme_util.Table

let render () =
  let engine = Engine.create () in
  [
    E.e1_lock_landscape ~engine ();
    E.e3_adversary_bound ~engine ~ns:[ 64; 256 ] ~ws:[ 4; 8 ] ();
    E.e5_crash_cost ~engine ();
    E.e6_model_comparison ~engine ();
    E.e8_system_wide ~engine ();
    E.a1_arity_ablation ~engine ();
    E.f1_fairness ~engine;
  ]
  |> List.concat_map (List.map (fun t -> Table.render t ^ "\n"))
  |> String.concat ""

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_golden () =
  Alcotest.(check string) "tables.expected" (read_file "tables.expected") (render ())

let suite =
  ("tables", [ Alcotest.test_case "golden tables" `Quick test_golden ])
