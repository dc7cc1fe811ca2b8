(* Per-layer attribution for the traced run. Spans are recorded here, in
   the benchmark, around each public call into a layer; the program
   itself carries no instrumentation. Spans never nest, so a span's
   duration is its self time. When tracing is off, [span] is a plain
   call and only the phase wall clocks and the operation counters run. *)

type phase = Open | Update | Close | Storm | Other

let phases = [ Open; Update; Close; Storm; Other ]

let phase_index = function
  | Open -> 0
  | Update -> 1
  | Close -> 2
  | Storm -> 3
  | Other -> 4

let n_phases = 5

(* Span slots: one per layer call site, plus one per Wire message kind
   for Party.handle_msg. *)
let tick = 0
let deliver = 1
let end_of_round = 2
let request = 3
let record_for = 4
let watch = 5
let unwatch = 6
let poll = 7
let poll_snapshot = 8
let adversary = 9
let kinds =
  [| "createInfo"; "createCom"; "createFund"; "updateReq"; "updateInfo";
     "updateComP"; "updateComQ"; "revokeP"; "revokeQ"; "closeP"; "closeQ" |]

let handle_base = 10
let n_slots = handle_base + Array.length kinds

let handle_slot (m : Daric_core.Wire.msg) : int =
  let k = Daric_core.Wire.kind m in
  let rec find i =
    if i = Array.length kinds then invalid_arg ("unknown message kind " ^ k)
    else if String.equal kinds.(i) k then handle_base + i
    else find (i + 1)
  in
  find 0

let enabled = ref false
let cur = ref (phase_index Other)
let ns = Array.make_matrix n_phases n_slots 0
let calls = Array.make_matrix n_phases n_slots 0

(* Always on: wall time per phase, and per-phase work counters. *)
let phase_ns = Array.make n_phases 0
let phase_start = ref (Stats.now_ns ())
let updates = Array.make n_phases 0
let signs = Array.make n_phases 0
let verifies = Array.make n_phases 0
let wal_bytes = Array.make n_phases 0

(* Opt-in (untraced reference run): collector activity per phase. *)
let gc_on = ref false
let gc_minor = Array.make n_phases 0.
let gc_promoted = Array.make n_phases 0.
let gc_majors = Array.make n_phases 0
let gc_last = ref (Gc.quick_stat ())

(* Traced only: due transactions per tick, delivered messages. *)
let due = Array.make n_phases 0
let msgs = Array.make n_phases 0
let captured : Daric_core.Wire.msg list ref = ref []
let captured_len = ref 0
let capture_max = 20_000

let set_phase (p : phase) : unit =
  let t = Stats.now_ns () in
  phase_ns.(!cur) <- phase_ns.(!cur) + (t - !phase_start);
  phase_start := t;
  if !gc_on then begin
    let q = Gc.quick_stat () and l = !gc_last in
    gc_minor.(!cur) <- gc_minor.(!cur) +. (q.Gc.minor_words -. l.Gc.minor_words);
    gc_promoted.(!cur) <-
      gc_promoted.(!cur) +. (q.Gc.promoted_words -. l.Gc.promoted_words);
    gc_majors.(!cur) <-
      gc_majors.(!cur) + (q.Gc.major_collections - l.Gc.major_collections);
    gc_last := q
  end;
  cur := phase_index p

let reset () : unit =
  List.iter
    (fun a -> Array.iter (fun row -> Array.fill row 0 n_slots 0) a)
    [ ns; calls ];
  List.iter
    (fun a -> Array.fill a 0 n_phases 0)
    [ phase_ns; updates; signs; verifies; wal_bytes; due; msgs; gc_majors ];
  List.iter (fun a -> Array.fill a 0 n_phases 0.) [ gc_minor; gc_promoted ];
  gc_last := Gc.quick_stat ();
  captured := [];
  captured_len := 0;
  cur := phase_index Other;
  phase_start := Stats.now_ns ()

let add (slot : int) (d : int) : unit =
  ns.(!cur).(slot) <- ns.(!cur).(slot) + d;
  calls.(!cur).(slot) <- calls.(!cur).(slot) + 1

let span (slot : int) (f : unit -> 'a) : 'a =
  if not !enabled then f ()
  else begin
    let t0 = Stats.now_ns () in
    let r = f () in
    add slot (Stats.now_ns () - t0);
    r
  end

let count_due (n : int) : unit = due.(!cur) <- due.(!cur) + n

(* Update-phase messages are kept (up to [capture_max]) for the wire
   size and encode/decode figures. *)
let count_msg (m : Daric_core.Wire.msg) : unit =
  msgs.(!cur) <- msgs.(!cur) + 1;
  if !cur = phase_index Update && !captured_len < capture_max then begin
    captured := m :: !captured;
    incr captured_len
  end

let count_wal (n : int) : unit = wal_bytes.(!cur) <- wal_bytes.(!cur) + n

let count_update ~(signs_delta : int) ~(verifies_delta : int) : unit =
  updates.(!cur) <- updates.(!cur) + 1;
  signs.(!cur) <- signs.(!cur) + signs_delta;
  verifies.(!cur) <- verifies.(!cur) + verifies_delta

(* Sums over a set of phases. *)
let sum_phases (ps : phase list) (f : int -> int) : int =
  List.fold_left (fun acc p -> acc + f (phase_index p)) 0 ps

let slot_ns ps slot = sum_phases ps (fun i -> ns.(i).(slot))
let slot_calls ps slot = sum_phases ps (fun i -> calls.(i).(slot))
let wall_ns ps = sum_phases ps (fun i -> phase_ns.(i))
let updates_in ps = sum_phases ps (fun i -> updates.(i))

(* Every slot's time in the given phases: the attributed total. *)
let attributed_ns ps =
  let t = ref 0 in
  for s = 0 to n_slots - 1 do
    t := !t + slot_ns ps s
  done;
  !t
