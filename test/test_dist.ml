(* Tests for the wire formats of the removed worker tier (lib/dist):
   qcheck round-trips of frames and protocol messages (including
   Codec-escaped key material) and totality — arbitrary garbage decodes
   to None/`Corrupt`, never an exception. *)

module Frame = Rme_dist.Frame
module Protocol = Rme_dist.Protocol
module Codec = Rme_store.Codec

(* ---------------- qcheck: frames ---------------- *)

let feed_str d s = Frame.feed d (Bytes.of_string s) (String.length s)

let drain_frames d =
  let rec go acc =
    match Frame.next d with
    | `Frame f -> go (f :: acc)
    | `Await -> `Ok (List.rev acc)
    | `Corrupt -> `Corrupt
  in
  go []

let prop_frame_round_trip =
  QCheck.Test.make ~name:"frame: round-trips under arbitrary chunking" ~count:300
    QCheck.(pair (small_list string) (int_range 1 7))
    (fun (payloads, chunk) ->
      let wire = String.concat "" (List.map Frame.to_string payloads) in
      let d = Frame.decoder () in
      let got = ref [] in
      let n = String.length wire in
      let i = ref 0 in
      let ok = ref true in
      while !i < n do
        let c = min chunk (n - !i) in
        feed_str d (String.sub wire !i c);
        (match drain_frames d with
        | `Ok fs -> got := !got @ fs
        | `Corrupt -> ok := false);
        i := !i + c
      done;
      !ok && !got = payloads)

let prop_frame_garbage_total =
  QCheck.Test.make ~name:"frame: incremental decode of garbage is total" ~count:300
    QCheck.string (fun junk ->
      let d = Frame.decoder () in
      feed_str d junk;
      (* Bounded drain: every step must return, never raise; embedded
         valid frames are fine, corruption must stick. *)
      let rec go n =
        n = 0
        ||
        match Frame.next d with
        | `Frame _ -> go (n - 1)
        | `Await -> true
        | `Corrupt -> ( match Frame.next d with `Corrupt -> true | _ -> false)
      in
      go 64)

let prop_frame_read_total =
  QCheck.Test.make ~name:"frame: blocking read of garbage is total" ~count:100
    QCheck.string (fun junk ->
      let f = Filename.temp_file "rme_frame" ".bin" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove f with Sys_error _ -> ())
        (fun () ->
          let oc = open_out_bin f in
          output_string oc junk;
          close_out oc;
          let ic = open_in_bin f in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              let rec go n =
                n = 0 || match Frame.read ic with Some _ -> go (n - 1) | None -> true
              in
              go 64)))

(* ---------------- qcheck: protocol ---------------- *)

(* Key material in the shape the engine really sends: space-separated
   [field=value] pairs with Codec-escaped payloads (never a newline,
   never the [" := "] separator). *)
let key_gen =
  QCheck.Gen.(
    map
      (fun parts ->
        String.concat " "
          (List.mapi (fun i s -> Printf.sprintf "f%d=%s" i (Codec.escape s)) parts))
      (list_size (int_range 1 4) (string_size (int_range 0 12))))

let value_gen = QCheck.Gen.map Codec.escape QCheck.Gen.(string_size (int_range 0 16))
let section_gen = QCheck.Gen.oneofl [ "cell"; "adv"; "t" ]
let fp_gen = QCheck.Gen.(map (fun s -> "f" ^ Codec.escape s) (string_size (int_range 0 8)))

let msg_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun f -> Protocol.Hello f) fp_gen;
        map (fun f -> Protocol.Ready f) fp_gen;
        map2
          (fun id tasks -> Protocol.Batch (id, tasks))
          small_nat
          (list_size (int_range 0 6) (pair section_gen key_gen));
        map2
          (fun id entries -> Protocol.Result (id, entries))
          small_nat
          (list_size (int_range 0 6)
             (map3
                (fun s k v -> (s, k, v))
                section_gen key_gen (option value_gen)));
      ])

let msg_print m =
  match Protocol.encode m with s -> String.concat "\\n" (String.split_on_char '\n' s)

let prop_protocol_round_trip =
  QCheck.Test.make ~name:"protocol: messages round-trip through encode/decode"
    ~count:500
    (QCheck.make ~print:msg_print msg_gen)
    (fun m -> Protocol.decode (Protocol.encode m) = Some m)

let prop_protocol_garbage_total =
  QCheck.Test.make ~name:"protocol: decoding arbitrary garbage is total" ~count:500
    QCheck.string (fun s ->
      match Protocol.decode s with Some _ | None -> true)

let suite =
  ( "dist",
    [
      Qc.to_alcotest prop_frame_round_trip;
      Qc.to_alcotest prop_frame_garbage_total;
      Qc.to_alcotest prop_frame_read_total;
      Qc.to_alcotest prop_protocol_round_trip;
      Qc.to_alcotest prop_protocol_garbage_total;
    ] )
