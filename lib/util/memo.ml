(** Bounded memo tables for pure functions, the one cache policy of the
    library. Each table is domain-local (no locks, and a miss on one
    domain never races another domain's table) and holds at most [cap] entries: when a miss finds it full, the table
    is reset wholesale, which only costs future hits. Keys are hashed
    and compared structurally. *)

let make ~(cap : int) (f : 'k -> 'v) : 'k -> 'v =
  let table = Domain.DLS.new_key (fun () -> Hashtbl.create (min cap 256)) in
  fun key ->
    let cache = Domain.DLS.get table in
    match Hashtbl.find_opt cache key with
    | Some v -> v
    | None ->
        let v = f key in
        if Hashtbl.length cache >= cap then Hashtbl.reset cache;
        Hashtbl.add cache key v;
        v
