(* Cross-scheme conformance: every registered SCHEME implementation
   must exhibit the qualitative Table 1 properties its Costmodel row
   claims — punishment (or not), O(1) vs O(n) storage slope, bounded
   dispute resolution — when driven through the generic harness. *)

module I = Daric_schemes.Scheme_intf
module Harness = Daric_schemes.Harness
module Registry = Daric_schemes.Registry
module Costmodel = Daric_schemes.Costmodel

let row_exn (module S : I.SCHEME) : Costmodel.scheme =
  match Registry.costmodel_row (module S) with
  | Some r -> r
  | None -> Alcotest.failf "%s: no Costmodel row" S.name

let report_exn name = function
  | Ok (r : Harness.report) -> r
  | Error e -> Alcotest.failf "%s: %s" name (I.error_to_string e)

let outcome_exn name (r : Harness.report) : I.outcome =
  match r.outcome with
  | Some o -> o
  | None -> Alcotest.failf "%s: scenario produced no outcome" name

(* Generous analytic bound on dispute rounds for the default config
   (rel_lock = 3, delta = 1): commit confirmation + the T-round
   dispute window + reaction + confirmation. *)
let round_bound = (4 * I.default_config.rel_lock) + 12

(* Exact closure outcomes after 3 updates on a fresh default
   environment, pinned so that a change to the shared closure frames
   cannot shift a round, a flag or a trace event unnoticed. *)
let expected_outcome name (close : Harness.close) : I.outcome =
  let o ?(punished = false) rounds trace =
    { I.punished; resolved = true; rounds; trace }
  in
  match (close, name) with
  | `Collaborative, "Daric" -> o 3 [ I.Settled ]
  | `Collaborative, _ -> o 1 [ I.Settled ]
  | `Dishonest, "eltoo" ->
      o 6
        [ I.Old_state_published 0; I.Latest_published; I.Overridden;
          I.Settled ]
  | `Dishonest, _ -> o ~punished:true 2 [ I.Old_state_published 0; I.Punished ]
  | `Force, "Sleepy" -> o 1 [ I.Latest_published ]
  | `Force, _ -> o 5 [ I.Latest_published; I.Settled ]
  | `None, _ -> invalid_arg "expected_outcome"

let outcome_t : I.outcome Alcotest.testable =
  Alcotest.testable
    (fun ppf (o : I.outcome) ->
      Format.fprintf ppf "punished=%b resolved=%b rounds=%d [%s]" o.I.punished
        o.I.resolved o.I.rounds
        (String.concat "; " (List.map I.event_to_string o.I.trace)))
    ( = )

let check_exact name close o =
  Alcotest.check outcome_t (name ^ ": exact outcome")
    (expected_outcome name close) o

(* ------------------------------------------------------------------ *)

let test_registry_matches_costmodel () =
  Alcotest.(check (list string))
    "registry covers Costmodel.all, in row order"
    (List.map (fun (c : Costmodel.scheme) -> c.Costmodel.name) Costmodel.all)
    (Registry.names ())

let test_collaborative (module S : I.SCHEME) () =
  let r =
    report_exn S.name
      (Harness.run_fresh (module S) { updates = 3; close = `Collaborative })
  in
  let o = outcome_exn S.name r in
  Alcotest.(check bool) (S.name ^ ": resolved") true o.I.resolved;
  Alcotest.(check bool) (S.name ^ ": nobody punished") false o.I.punished;
  check_exact S.name `Collaborative o

let test_force (module S : I.SCHEME) () =
  let row = row_exn (module S) in
  let r =
    report_exn S.name
      (Harness.run_fresh (module S) { updates = 3; close = `Force })
  in
  let o = outcome_exn S.name r in
  Alcotest.(check bool) (S.name ^ ": resolved") true o.I.resolved;
  Alcotest.(check bool) (S.name ^ ": nobody punished") false o.I.punished;
  if row.Costmodel.bounded_closure then
    Alcotest.(check bool)
      (Printf.sprintf "%s: closure within %d rounds (took %d)" S.name
         round_bound o.I.rounds)
      true
      (o.I.rounds <= round_bound);
  check_exact S.name `Force o

let test_dishonest (module S : I.SCHEME) () =
  let row = row_exn (module S) in
  let r =
    report_exn S.name
      (Harness.run_fresh (module S) { updates = 3; close = `Dishonest })
  in
  let o = outcome_exn S.name r in
  Alcotest.(check bool) (S.name ^ ": resolved") true o.I.resolved;
  (* Table 1 "punish": schemes marked incentive-compatible punish the
     publisher of a revoked state; eltoo merely overrides it. *)
  Alcotest.(check bool)
    (S.name ^ ": cheater punished iff incentive-compatible")
    row.Costmodel.incentive_compatible o.I.punished;
  if not row.Costmodel.incentive_compatible then
    Alcotest.(check bool)
      (S.name ^ ": old state overridden instead")
      true
      (List.mem I.Overridden o.I.trace);
  check_exact S.name `Dishonest o

(* With no update there is no revoked state to publish: every scheme
   refuses with a typed error naming itself and the stage. *)
let test_dishonest_needs_update (module S : I.SCHEME) () =
  match Harness.run_fresh (module S) { updates = 0; close = `Dishonest } with
  | Ok _ -> Alcotest.failf "%s: dishonest close without an update succeeded" S.name
  | Error e ->
      Alcotest.(check string) (S.name ^ ": error scheme") S.name e.I.scheme;
      Alcotest.(check string) (S.name ^ ": error stage") "dishonest_close"
        e.I.stage

let test_storage_slope (module S : I.SCHEME) () =
  let row = row_exn (module S) in
  let point n =
    report_exn S.name (Harness.run_fresh (module S) { updates = n; close = `None })
  in
  let small = point 2 and big = point 34 in
  (* Party storage: O(n) rows must grow, O(1) rows must not. The
     Outpost implementation deliberately deviates (reverse hash chain
     makes party storage constant; see lib/schemes/outpost.ml). *)
  (if S.name = "Outpost" then
     Alcotest.(check int)
       (S.name ^ ": party storage constant (documented O(1) deviation)")
       small.Harness.party_bytes big.Harness.party_bytes
   else
     match row.Costmodel.party_storage with
     | "O(n)" ->
         Alcotest.(check bool)
           (S.name ^ ": party storage grows with n")
           true
           (big.Harness.party_bytes > small.Harness.party_bytes)
     | _ ->
         Alcotest.(check int)
           (S.name ^ ": party storage constant in n")
           small.Harness.party_bytes big.Harness.party_bytes);
  match (small.Harness.watchtower_bytes, big.Harness.watchtower_bytes) with
  | Some ws, Some wb ->
      if row.Costmodel.watchtower_storage = "O(n)" then
        Alcotest.(check bool)
          (S.name ^ ": watchtower storage grows with n")
          true (wb > ws)
      else
        Alcotest.(check int)
          (S.name ^ ": watchtower storage constant in n")
          ws wb
  | None, None -> ()
  | _ -> Alcotest.failf "%s: watchtower_bytes changed presence" S.name

let test_ops_match_table3 (module S : I.SCHEME) () =
  let row = row_exn (module S) in
  let r =
    report_exn S.name
      (Harness.run_fresh (module S) { updates = 10; close = `None })
  in
  let o = r.Harness.per_update_ops in
  let expect = row.Costmodel.ops_per_update ~m:0 in
  Alcotest.(check (triple int int int))
    (S.name ^ ": per-update sign/verify/exp match Table 3")
    ( int_of_float expect.Costmodel.sign,
      int_of_float expect.Costmodel.verify,
      int_of_float expect.Costmodel.exp )
    (o.I.signs, o.I.verifies, o.I.exps)

(* Outpost-specific: the reverse hash chain bounds the lifetime. *)
let test_outpost_lifetime () =
  let (module S) = Registry.find_exn "Outpost" in
  match S.open_channel (I.make_env ()) I.default_config with
  | Error e -> Alcotest.failf "Outpost open: %s" (I.error_to_string e)
  | Ok _ -> ()

let per_scheme mk =
  List.map
    (fun (module S : I.SCHEME) -> Alcotest.test_case S.name `Quick (mk (module S : I.SCHEME)))
    Registry.all

let () =
  Alcotest.run "scheme_conformance"
    [ ( "registry",
        [ Alcotest.test_case "matches Costmodel.all" `Quick
            test_registry_matches_costmodel;
          Alcotest.test_case "Outpost opens" `Quick test_outpost_lifetime ] );
      ("collaborative-close", per_scheme test_collaborative);
      ("force-close", per_scheme test_force);
      ("dishonest-close", per_scheme test_dishonest);
      ("dishonest-close-no-update", per_scheme test_dishonest_needs_update);
      ("storage-slope", per_scheme test_storage_slope);
      ("ops-per-update", per_scheme test_ops_match_table3) ]
