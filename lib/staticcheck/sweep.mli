(** Registry-wide static-analysis sweep.

    For every scheme in {!Daric_schemes.Registry.all} (or a selected
    one), runs each closure scenario — collaborative, dishonest, and
    force close, after a few updates — on a fresh environment, then
    lints the resulting ledger DAG with the channel's own
    {!Scheme_intf.SCHEME.known_pubkeys} inventory. For Daric it
    additionally runs the deep closure-graph model lint
    ({!Daricmodel}). A failing scenario is itself a diagnostic. *)

type report = {
  scheme : string;
  txs : int;  (** transactions linted across the scenarios *)
  scenarios : int;
  diags : Diag.t list;
}

val run : ?updates:int -> ?scheme:string -> unit -> report list
(** All registry schemes (plus the Daric model), or just the named
    one. Unknown names yield an empty list. *)

val errors : report list -> int
val pp_report : verbose:bool -> Format.formatter -> report -> unit
