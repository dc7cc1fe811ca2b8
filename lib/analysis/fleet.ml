(** N Daric channels on one shared ledger: the system {!Scale},
    {!Tower_sim} and {!Memprobe} measure. The ids, seeds and balances
    are those the BENCH_scale/BENCH_tower/BENCH_mem baselines were
    taken with. *)

module I = Daric_schemes.Scheme_intf
module DS = Daric_schemes.Daric_scheme

let timed (f : unit -> 'a) : 'a * float =
  let t0 = Sys.time () in
  let x = f () in
  (x, Sys.time () -. t0)

let open_all (env : I.env) ~(prefix : string) ~(channels : int) :
    DS.state array =
  Array.init channels (fun k ->
      let cfg =
        { I.default_config with
          chan_id = Printf.sprintf "%s%d" prefix k;
          party_seed = 1000 + (2 * k);
          bal_a = 500_000 + (k mod 997);
          bal_b = 500_000 - (k mod 997) }
      in
      match DS.Scheme.open_channel env cfg with
      | Ok s -> s
      | Error e -> failwith (I.error_to_string e))

let update_all (chans : DS.state array) ~(updates : int) : unit =
  Array.iteri
    (fun k s ->
      for u = 1 to updates do
        let shift = (k mod 997) + (u * 13) in
        match
          DS.Scheme.update s ~bal_a:(500_000 + shift) ~bal_b:(500_000 - shift)
        with
        | Ok () -> ()
        | Error e -> failwith (I.error_to_string e)
      done)
    chans

let watch_all (chans : DS.state array) ~(who : string)
    (watch : Daric_core.Watchtower.record -> unit) : unit =
  Array.iter
    (fun s ->
      match DS.watch_record s with
      | Some r -> watch r
      | None -> failwith (who ^ ": no record after update"))
    chans
