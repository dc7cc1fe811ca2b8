(** Bounded explicit-state model checker over adversarial channel
    worlds.

    A {!MODEL} packages a mutable world, an explicit enumeration of the
    adversary's (and environment's) next moves, a canonical fingerprint
    for visited-state deduplication, an invariant check, and a
    snapshot/restore pair that lets depth-first search backtrack. The
    explorer drives every interleaving of the world's actions up to a
    depth bound, dedups on fingerprints, stops at a state budget, and
    minimizes the first counterexample per violated invariant by greedy
    trace deletion.

    Soundness caveats of bounded exploration: a clean verdict only
    covers behaviours reachable within the configured depth/budget and
    the world's own parameter bounds (Δ, horizon, crash length); it is
    a bug *finder* with exhaustive coverage of a small world, not a
    proof. Within those bounds the search is exhaustive and
    deterministic — same model, same bounds, same verdicts and visited
    count on every run. *)

(** One invariant violation observed in a state. [invariant] is a
    stable name ("punish-or-refund", "bounded-closure",
    "no-honest-loss", "scenario-failure"); [detail] is free text. *)
type violation = { invariant : string; detail : string }

val punish_or_refund : string
val bounded_closure : string
val no_honest_loss : string
val scenario_failure : string
(** The Table-1 predicate names (plus the lifecycle-failure catch-all)
    used by the bundled worlds. *)

(** A checkable world. [apply] mutates the world in place; the
    explorer brackets it with [snapshot]/[restore]. Models are free to
    implement the pair either incrementally (ledger
    checkpoint/rollback) or by replay from [init]. *)
module type MODEL = sig
  val name : string

  type world
  type action
  type snap

  val action_to_string : action -> string

  val init : unit -> world

  val actions : world -> action list
  (** Enabled moves, in a deterministic order. [\[\]] marks a terminal
      state. *)

  val apply : world -> action -> unit

  val fingerprint : world -> string
  (** Canonical digest of the world state. Equal fingerprints must
      imply identical future behaviour (same enabled actions, same
      reachable violations). *)

  val check : world -> violation list
  (** Invariant violations holding in this state. *)

  val snapshot : world -> snap
  val restore : world -> snap -> unit
end

type config = {
  max_depth : int;  (** longest action sequence explored *)
  max_states : int;  (** state-visit budget; exceeded ⇒ [truncated] *)
  iterative : bool;
      (** iterative deepening (depth 1, 2, … until a violation or
          [max_depth]) — finds short counterexamples; [false] runs a
          single pass at [max_depth] (the clean-sweep configuration) *)
}

val default_config : config
(** depth 18, 200k states, iterative. *)

(** A violation together with the (minimized) action trace reaching
    it from the initial state. *)
type counterexample = { violation : violation; trace : string list }

type result = {
  model : string;
  visited : int;  (** distinct fingerprints at the deepest pass *)
  transitions : int;  (** [apply] calls across all passes *)
  depth : int;  (** depth bound of the last pass run *)
  truncated : bool;  (** a pass hit [max_states] *)
  counterexamples : counterexample list;
      (** one per violated invariant name, shortest-first discovery,
          greedily minimized *)
  visited_set : (string, unit) Hashtbl.t;
      (** fingerprints of the deepest pass (backs {!contains}) *)
}

val explore :
  ?config:config -> (module MODEL) -> result

val contains : result -> string -> bool
(** Was this fingerprint visited during the result's deepest pass?
    (The scripted-trace inclusion differential asks this for every
    prefix of a scenario-engine trace.) *)

val replay :
  (module MODEL with type world = 'w) -> string list -> 'w option
(** Rebuild a world by replaying a trace of action strings from
    [init]; [None] if some action is not enabled (by string equality
    against [actions]) where the trace demands it. *)

val violates :
  (module MODEL) -> invariant:string -> string list -> bool
(** Does replaying this trace end in a state violating [invariant]?
    (The mutation matrix replays hand-written witness traces through
    this before comparing their length against the checker's
    minimized counterexamples.) *)

val minimize :
  (module MODEL) -> invariant:string -> string list -> string list
(** Greedy deletion: drop actions one at a time, keeping a removal
    whenever the remaining trace still replays to a state violating
    [invariant]; repeats until no single deletion survives. *)

val digest : Buffer.t -> string
(** Fingerprint helper: hash a buffer's contents ({!Daric_crypto.Hash}
    double SHA-256) and intern the digest ({!Daric_util.Intern}) so
    the visited set stores one shared instance per distinct state. *)

val pp_counterexample : Format.formatter -> counterexample -> unit
