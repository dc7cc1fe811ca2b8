(** Regeneration of the paper's tables and Section 6 analyses.

    Storage and operation measurements iterate the scheme registry
    ({!Daric_schemes.Registry}) through the generic scenario engine;
    a scheme that fails yields [Error] cells, not an exception. *)

(** One scheme's storage snapshot after n updates. *)
type measurement = { party : int; watchtower : int option }

(** One row of the Table 1 measured-storage sweep: a measurement (or
    failure reason) per registered scheme, keyed by scheme name. *)
type storage_point = {
  n_updates : int;
  rows : (string * (measurement, string) result) list;
}

val storage_point : n:int -> storage_point
val storage_sweep : ?ns:int list -> unit -> storage_point list

val measurement : storage_point -> string -> (measurement, string) result

val party_cell : storage_point -> string -> (int, string) result
(** Party-storage bytes of a scheme at a sweep point. *)

val watchtower_cell : storage_point -> string -> (int, string) result
(** Watchtower-storage bytes; [Error] also when the scheme has no
    watchtower. *)

val table1 : ?ns:int list -> unit -> string
(** Table 1 plus the measured storage sweep. *)

val table3 : ?ms:int list -> unit -> string
(** Table 3: closure costs per m, paper quotes side by side, operation
    counts. *)

type measured_ops = { scheme : string; sign : int; verify : int; exp : int }

val measure_ops : unit -> (measured_ops, string) result list
(** Per-party per-update operation counts measured on the executable
    schemes (Daric via the full two-party protocol). *)

val measured_ops_table : unit -> string

val attack_report : ?cfg:Daric_pcn.Attack.config -> unit -> string
(** Section 6.1: analytic arithmetic + simulated eltoo pinning +
    the same adversary against Daric. *)

val incentives_report : unit -> string
(** Section 6.2: thresholds, sweeps, Monte-Carlo validation. *)
