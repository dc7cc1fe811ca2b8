(** Bounded explicit-state model checker core: depth-first search with
    fingerprint deduplication, iterative deepening, a state budget,
    and greedy counterexample minimization. See the interface for the
    soundness caveats of bounded exploration. *)

type violation = { invariant : string; detail : string }

let punish_or_refund = "punish-or-refund"
let bounded_closure = "bounded-closure"
let no_honest_loss = "no-honest-loss"
let scenario_failure = "scenario-failure"

module type MODEL = sig
  val name : string

  type world
  type action
  type snap

  val action_to_string : action -> string
  val init : unit -> world
  val actions : world -> action list
  val apply : world -> action -> unit
  val fingerprint : world -> string
  val check : world -> violation list
  val snapshot : world -> snap
  val restore : world -> snap -> unit
end

type config = { max_depth : int; max_states : int; iterative : bool }

let default_config = { max_depth = 18; max_states = 200_000; iterative = true }

type counterexample = { violation : violation; trace : string list }

type result = {
  model : string;
  visited : int;
  transitions : int;
  depth : int;
  truncated : bool;
  counterexamples : counterexample list;
  visited_set : (string, unit) Hashtbl.t;
}

(* ---------------- replay ---------------- *)

let replay (type w) (module M : MODEL with type world = w)
    (trace : string list) : w option =
  let w = M.init () in
  let step name =
    match
      List.find_opt (fun a -> M.action_to_string a = name) (M.actions w)
    with
    | None -> false
    | Some a ->
        M.apply w a;
        true
  in
  if List.for_all step trace then Some w else None

let violates (module M : MODEL) ~(invariant : string)
    (trace : string list) : bool =
  match replay (module M) trace with
  | None -> false
  | Some w -> List.exists (fun v -> v.invariant = invariant) (M.check w)

(* ---------------- counterexample minimization ---------------- *)

(* Greedy deletion to a fixpoint: each round tries to drop every
   position in turn; a deletion survives iff the remaining trace still
   replays (every action enabled where demanded) to a state violating
   the same invariant. O(len^2) replays — traces are bounded by the
   depth bound, so this is cheap. *)
let minimize (module M : MODEL) ~(invariant : string)
    (trace : string list) : string list =
  let drop_nth l n = List.filteri (fun i _ -> i <> n) l in
  let rec fixpoint t =
    let len = List.length t in
    let rec try_from n =
      if n >= len then t
      else
        let t' = drop_nth t n in
        if violates (module M) ~invariant t' then fixpoint t'
        else try_from (n + 1)
    in
    try_from 0
  in
  if violates (module M) ~invariant trace then fixpoint trace else trace

(* ---------------- exploration ---------------- *)

(* One depth-bounded DFS pass. [visited] maps fingerprint to the
   largest remaining depth already explored from that state: a state
   reached again with no more fuel than before cannot uncover anything
   new and is pruned; reached with *more* fuel it is re-expanded (the
   standard fix that keeps depth-bounded memoized DFS exhaustive). *)
let run_pass (module M : MODEL) ~(bound : int) ~(max_states : int)
    ~(transitions : int ref)
    ~(found : (string, violation * string list) Hashtbl.t) :
    (string, unit) Hashtbl.t * int * bool =
  let visited : (string, int) Hashtbl.t = Hashtbl.create 4096 in
  let states = ref 0 in
  let truncated = ref false in
  let w = M.init () in
  let rec dfs depth_left trace =
    if !truncated then ()
    else begin
      incr states;
      if !states > max_states then truncated := true
      else begin
        List.iter
          (fun (v : violation) ->
            if not (Hashtbl.mem found v.invariant) then
              Hashtbl.add found v.invariant (v, List.rev trace))
          (M.check w);
        let fp = M.fingerprint w in
        let prev = Hashtbl.find_opt visited fp in
        let expand =
          depth_left > 0
          && (match prev with Some d -> depth_left > d | None -> true)
        in
        (match prev with
        | Some d when d >= depth_left -> ()
        | _ -> Hashtbl.replace visited fp depth_left);
        if expand then
          List.iter
            (fun a ->
              if not !truncated then begin
                incr transitions;
                let s = M.snapshot w in
                M.apply w a;
                dfs (depth_left - 1) (M.action_to_string a :: trace);
                M.restore w s
              end)
            (M.actions w)
      end
    end
  in
  dfs bound [];
  let set = Hashtbl.create (Hashtbl.length visited) in
  Hashtbl.iter (fun fp _ -> Hashtbl.replace set fp ()) visited;
  (set, !states, !truncated)

let explore ?(config = default_config) (module M : MODEL) : result =
  let transitions = ref 0 in
  let found : (string, violation * string list) Hashtbl.t =
    Hashtbl.create 4
  in
  let max_depth = max 1 config.max_depth in
  let depths =
    if config.iterative then List.init max_depth (fun i -> i + 1)
    else [ max_depth ]
  in
  let rec loop = function
    | [] -> assert false
    | d :: rest ->
        let set, _states, truncated =
          run_pass (module M) ~bound:d ~max_states:config.max_states
            ~transitions ~found
        in
        if Hashtbl.length found > 0 || truncated || rest = [] then
          (set, d, truncated)
        else loop rest
  in
  let set, depth, truncated = loop depths in
  let counterexamples =
    Hashtbl.fold (fun _ (v, trace) acc -> (v, trace) :: acc) found []
    |> List.sort (fun ((a : violation), _) (b, _) ->
           compare a.invariant b.invariant)
    |> List.map (fun (v, trace) ->
           { violation = v;
             trace = minimize (module M) ~invariant:v.invariant trace })
  in
  { model = M.name;
    visited = Hashtbl.length set;
    transitions = !transitions;
    depth;
    truncated;
    counterexamples;
    visited_set = set }

let contains (r : result) (fp : string) : bool = Hashtbl.mem r.visited_set fp

(* ---------------- rendering ---------------- *)

let pp_counterexample fmt (c : counterexample) =
  Fmt.pf fmt "@[<v2>%s: %s@,%a@]" c.violation.invariant c.violation.detail
    (Fmt.list ~sep:Fmt.cut (fun fmt (i, a) -> Fmt.pf fmt "%2d. %s" (i + 1) a))
    (List.mapi (fun i a -> (i, a)) c.trace)
