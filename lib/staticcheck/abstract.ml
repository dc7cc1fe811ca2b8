module Script = Daric_script.Script
module Interp = Daric_script.Interp

type hash_fn = H160 | H256 | Sha | Ripemd

let apply_hash = function
  | H160 -> Daric_crypto.Hash.hash160
  | H256 -> Daric_crypto.Hash.hash256
  | Sha -> Daric_crypto.Sha256.digest
  | Ripemd -> Daric_crypto.Ripemd160.digest

type slot = {
  exact : string option;
  not_exact : string list;
  truth : bool option;
  sig_for : string option;
  nonsig_for : string list;
  preimage : (hash_fn * string) option;
}

let free_slot =
  { exact = None; not_exact = []; truth = None; sig_for = None;
    nonsig_for = []; preimage = None }

type verdict = [ `Sat | `Unsat of string | `Unknown of string ]

type path = {
  taken : string;
  verdict : verdict;
  arity : int;
  slots : slot list;
  cltv : (bool * int) list;
  csv : int;
  keys : string list;
  notes : string list;
}

type t = {
  paths : path list;
  parse_ok : bool;
  data_carrier : bool;
  used_keys : string list;
  diags : (Diag.rule * Diag.severity * string * string) list;
}

(* ------------------------------------------------------------------ *)
(* Conditional-tree parser.

   The concrete interpreter treats every [Else] as a toggle of the
   innermost execution flag, so a conditional with several [Else]
   segments alternates: segments 0, 2, 4... run when the condition
   selects the then-arm, segments 1, 3, 5... when it selects the
   else-arm. We normalise to a two-arm [Cond] by concatenating the
   even- and odd-indexed segments. *)

type node =
  | Op of Script.op
  | Cond of bool * node list * node list  (* negated?, then-arm, else-arm *)

type frame = {
  negated : bool;
  mutable segs : node list list;  (* completed segments, reversed *)
  mutable cur : node list;        (* current segment, reversed *)
}

let parse (ops : Script.t) : (node list, unit) result =
  let top = { negated = false; segs = []; cur = [] } in
  let stack = ref [ top ] in
  let cur () = List.hd !stack in
  let emit n = (cur ()).cur <- n :: (cur ()).cur in
  let ok = ref true in
  List.iter
    (fun (op : Script.op) ->
      if !ok then
        match op with
        | If -> stack := { negated = false; segs = []; cur = [] } :: !stack
        | Notif -> stack := { negated = true; segs = []; cur = [] } :: !stack
        | Else -> (
            match !stack with
            | [ _ ] -> ok := false
            | f :: _ ->
                f.segs <- List.rev f.cur :: f.segs;
                f.cur <- []
            | [] -> ok := false)
        | Endif -> (
            match !stack with
            | [ _ ] | [] -> ok := false
            | f :: rest ->
                stack := rest;
                let segs = List.rev (List.rev f.cur :: f.segs) in
                let thn, els =
                  List.fold_left
                    (fun (t, e, even) seg ->
                      if even then (seg :: t, e, false) else (t, seg :: e, true))
                    ([], [], true) segs
                  |> fun (t, e, _) -> (List.concat (List.rev t),
                                       List.concat (List.rev e))
                in
                emit (Cond (f.negated, thn, els)))
        | op -> emit (Op op))
    ops;
  match !stack with
  | [ f ] when !ok && f.segs = [] -> Ok (List.rev f.cur)
  | _ -> Error ()

(* ------------------------------------------------------------------ *)
(* Abstract values and path state. *)

type aval =
  | Const of string
  | Wit of int
  | Hashed of hash_fn * aval
  | Sig1 of string option * aval  (* constant pk (if any), sig operand *)
  | Msig of string list * aval list  (* constant pks, sig operands; script order *)
  | Sized of aval
  | Eqv of aval * aval
  | Opaque of string

module IM = Map.Make (Int)

type vstatus = St_ok | St_unsat of string | St_unknown of string

type pstate = {
  stack : aval list;
  slots : slot IM.t;
  nslots : int;
  taken : string;
  cltv : (bool * int) list;
  csv : int;
  keys : string list;
  notes : string list;
  status : vstatus;
  halted : bool;  (* stop interpreting: certain failure or lost track *)
  pdiags : (Diag.rule * Diag.severity * string * string) list;
}

let init_state =
  { stack = []; slots = IM.empty; nslots = 0; taken = ""; cltv = []; csv = 0;
    keys = []; notes = []; status = St_ok; halted = false; pdiags = [] }

let unsat st why = { st with status = St_unsat why; halted = true }

(* First Unknown reason wins; Unsat is stronger and never downgraded. *)
let unknown st why =
  match st.status with
  | St_ok -> { st with status = St_unknown why }
  | St_unsat _ | St_unknown _ -> st

let unknown_halt st why = { (unknown st why) with halted = true }

let pdiag st rule sev detail =
  { st with
    pdiags = (rule, sev, (if st.taken = "" then "-" else st.taken), detail)
             :: st.pdiags }

let push st v = { st with stack = v :: st.stack }

(* The k-th pop from an empty abstract stack is witness slot k: the
   k-th item from the top of the concrete initial stack. *)
let pop st =
  match st.stack with
  | v :: rest -> (v, { st with stack = rest })
  | [] ->
      let id = st.nslots in
      (Wit id, { st with nslots = id + 1; slots = IM.add id free_slot st.slots })

let peek st =
  match st.stack with
  | v :: _ -> (v, st)
  | [] ->
      let id = st.nslots in
      ( Wit id,
        { st with nslots = id + 1; slots = IM.add id free_slot st.slots;
          stack = [ Wit id ] } )

let static_truth = function
  | Const c -> Some (Interp.truthy c)
  | _ -> None

let const_num = function
  | Const c -> (
      match Interp.decode_num c with Some v -> `Num v | None -> `Bad)
  | _ -> `Dyn

(* Constraint merging. Each [with_*] function tightens one slot; a
   contradiction that is certain under the one-signature-one-key
   oracle model yields Unsat, anything subtler degrades to Unknown. *)

type upd = U_ok of slot | U_unsat of string | U_unknown of string

let constrain st i (f : slot -> upd) : pstate =
  match f (IM.find i st.slots) with
  | U_ok s -> { st with slots = IM.add i s st.slots }
  | U_unsat why -> unsat st why
  | U_unknown why -> unknown st why

let with_truth want s =
  match s.truth with
  | Some t when t <> want -> U_unsat "witness item demanded both truthy and falsy"
  | _ -> (
      match s.exact with
      | Some c when Interp.truthy c <> want ->
          U_unsat "pinned witness item has the wrong truth value"
      | _ ->
          if s.sig_for <> None && not want then
            U_unsat "valid signature demanded falsy"
          else if s.preimage <> None && not want then
            U_unknown "falsy hash preimage"
          else U_ok { s with truth = Some want })

let with_exact c s =
  match s.exact with
  | Some c' when c' <> c -> U_unsat "witness item pinned to two values"
  | _ ->
      if List.mem c s.not_exact then
        U_unsat "witness item both pinned to and excluded from a value"
      else if (match s.truth with Some t -> t <> Interp.truthy c | None -> false)
      then U_unsat "pinned witness item has the wrong truth value"
      else if s.sig_for <> None then U_unknown "constant demanded as signature"
      else (
        match s.preimage with
        | Some (f, d) when apply_hash f c <> d ->
            U_unsat "pinned witness item is not the demanded preimage"
        | _ -> U_ok { s with exact = Some c })

let with_not_exact c s =
  match s.exact with
  | Some c' when c' = c ->
      U_unsat "witness item both pinned to and excluded from a value"
  | _ -> U_ok { s with not_exact = c :: s.not_exact }

let with_sig pk s =
  match s.sig_for with
  | Some pk' when pk' <> pk ->
      U_unsat "one witness item demanded as signature for two keys"
  | _ ->
      if List.mem pk s.nonsig_for then
        U_unknown "signature demanded both valid and invalid for one key"
      else if s.truth = Some false then U_unsat "valid signature demanded falsy"
      else if s.exact <> None then U_unknown "constant demanded as signature"
      else if s.preimage <> None then U_unknown "preimage demanded as signature"
      else U_ok { s with sig_for = Some pk }

let with_nonsig pks s =
  match s.sig_for with
  | Some pk when List.mem pk pks ->
      U_unknown "signature demanded both valid and invalid for one key"
  | _ -> U_ok { s with nonsig_for = pks @ s.nonsig_for }

let with_preimage f d s =
  match s.preimage with
  | Some (f', d') when f' = f && d' <> d ->
      U_unsat "one witness item demanded as preimage of two digests"
  | Some (f', _) when f' <> f -> U_unknown "preimage demands under two hashes"
  | _ -> (
      match s.exact with
      | Some c ->
          if apply_hash f c = d then U_ok s
          else U_unsat "pinned witness item is not the demanded preimage"
      | None ->
          if s.sig_for <> None then U_unknown "preimage demanded as signature"
          else if s.truth = Some false then U_unknown "falsy hash preimage"
          else U_ok { s with preimage = Some (f, d) })

(* Demand that abstract value [v] evaluate truthy ([want]=true) or
   falsy. [why] labels the certain-failure case. *)
let rec demand want v st ~why =
  match v with
  | Const c -> if Interp.truthy c = want then st else unsat st why
  | Wit i -> constrain st i (with_truth want)
  | Sig1 (Some pk, Wit i) ->
      if want then constrain st i (with_sig pk)
      else constrain st i (with_nonsig [ pk ])
  | Sig1 (None, _) -> unknown st "signature check with non-constant key"
  | Sig1 (Some _, _) -> unknown st "signature check on derived operand"
  | Msig (pks, sigs) -> demand_msig want pks sigs st
  | Hashed _ -> unknown st "truth of a computed digest"
  | Sized _ -> unknown st "truth of a computed size"
  | Eqv (a, b) -> demand_eq want a b st ~why
  | Opaque reason -> unknown st reason

and demand_msig want pks sigs st =
  if want then (
    (* Pair the j-th signature with the j-th key (script order): the
       interpreter's ordered-subsequence matcher accepts exactly this
       shape, so it is a sufficient witness template. When m < n the
       pairing is merely one valid matching among several, so a
       conflict only degrades to Unknown; with m = n the identity
       pairing is forced and a conflict is a genuine contradiction. *)
    let slots_of =
      List.map (function Wit i -> Some i | _ -> None) sigs
    in
    if List.exists (( = ) None) slots_of then
      unknown st "multisig signature operand is not a witness item"
    else
      let ids = List.filter_map (fun x -> x) slots_of in
      if List.length (List.sort_uniq compare ids) <> List.length ids then
        unknown st "one witness item used as two multisig signatures"
      else
        let st' =
          List.fold_left2
            (fun st i pk ->
              if st.halted then st else constrain st i (with_sig pk))
            st ids
            (List.filteri (fun j _ -> j < List.length ids) pks)
        in
        match st'.status with
        | St_unsat _ when List.length ids < List.length pks ->
            unknown st "multisig pairing ambiguous"
        | _ -> st')
  else
    List.fold_left
      (fun st sg ->
        match sg with
        | Wit i -> if st.halted then st else constrain st i (with_nonsig pks)
        | _ -> unknown st "multisig signature operand is not a witness item")
      st sigs

and demand_eq want a b st ~why =
  match (a, b) with
  | Const x, Const y -> if (x = y) = want then st else unsat st why
  | Wit i, Const c | Const c, Wit i ->
      if want then constrain st i (with_exact c)
      else constrain st i (with_not_exact c)
  | Hashed (f, Wit i), Const d | Const d, Hashed (f, Wit i) ->
      if want then constrain st i (with_preimage f d)
      else unknown st "digest demanded unequal to a constant"
  | Wit i, Wit j when i = j -> if want then st else unsat st why
  | _ -> unknown st "equality between untracked values"

(* ------------------------------------------------------------------ *)
(* Symbolic execution of one op (no forking here). *)

let locktime_class t = t >= Interp.locktime_threshold

let rec exec_op (op : Script.op) st =
  match op with
  | If | Notif | Else | Endif ->
      (* structurally removed by the parser *)
      unknown_halt st "conditional op survived parsing"
  | Push d -> push st (Const d)
  | Num v -> push st (Const (Interp.item_of_int v))
  | Small v -> push st (Const (Interp.item_of_int v))
  | Verify ->
      let v, st = pop st in
      demand true v st ~why:"VERIFY on a falsy value"
  | Return -> unsat st "OP_RETURN executed"
  | Dup ->
      let v, st = peek st in
      push st v
  | Drop ->
      let _, st = pop st in
      st
  | Swap ->
      let a, st = pop st in
      let b, st = pop st in
      push (push st a) b
  | Size -> (
      let v, st = peek st in
      match v with
      | Const c -> push st (Const (Interp.item_of_int (String.length c)))
      | _ -> push st (Sized v))
  | Equal -> (
      let a, st = pop st in
      let b, st = pop st in
      match (a, b) with
      | Const x, Const y ->
          push st (Const (Interp.item_of_int (if x = y then 1 else 0)))
      | _ -> push st (Eqv (a, b)))
  | Equalverify ->
      let a, st = pop st in
      let b, st = pop st in
      demand_eq true a b st ~why:"EQUALVERIFY on unequal constants"
  | Hash160 -> exec_hash H160 st
  | Hash256 -> exec_hash H256 st
  | Sha256 -> exec_hash Sha st
  | Ripemd160 -> exec_hash Ripemd st
  | Checksig -> exec_checksig ~verify:false st
  | Checksigverify -> exec_checksig ~verify:true st
  | Checkmultisig -> exec_multisig ~verify:false st
  | Checkmultisigverify -> exec_multisig ~verify:true st
  | Cltv -> (
      let v, st = peek st in
      match v with
      | Const c -> (
          match Interp.decode_num c with
          | None -> unsat st "non-canonical CLTV operand"
          | Some t ->
              let cls = locktime_class t in
              if List.exists (fun (cls', _) -> cls' <> cls) st.cltv then
                let st =
                  pdiag st Diag.Mixed_cltv_classes Diag.Error
                    (Printf.sprintf
                       "path requires CLTV %d alongside the other range class" t)
                in
                unsat st "height- and timestamp-class CLTV on one path"
              else { st with cltv = (cls, t) :: st.cltv })
      | _ -> unknown st "non-constant CLTV operand")
  | Csv -> (
      let v, st = peek st in
      match v with
      | Const c -> (
          match Interp.decode_num c with
          | None -> unsat st "non-canonical CSV operand"
          | Some t -> { st with csv = max st.csv t })
      | _ -> unknown st "non-constant CSV operand")

and exec_hash f st =
  let v, st = pop st in
  match v with
  | Const c -> push st (Const (apply_hash f c))
  | _ -> push st (Hashed (f, v))

and exec_checksig ~verify st =
  let pk, st = pop st in
  let sg, st = pop st in
  let st, pkc =
    match pk with
    | Const c -> ({ st with keys = c :: st.keys }, Some c)
    | _ -> (st, None)
  in
  let res = Sig1 (pkc, sg) in
  if verify then demand true res st ~why:"CHECKSIGVERIFY failed"
  else push st res

and exec_multisig ~verify st =
  let rec pop_n n acc st =
    if n = 0 then (List.rev acc, st)
    else
      let v, st = pop st in
      pop_n (n - 1) (v :: acc) st
  in
  let nv, st = pop st in
  match const_num nv with
  | `Bad -> unsat st "non-canonical multisig key count"
  | `Dyn -> unknown_halt st "witness-supplied multisig key count"
  | `Num n when n < 1 || n > 16 -> unsat st "multisig key count out of range"
  | `Num n -> (
      let pks_rev, st = pop_n n [] st in
      let pks = List.rev pks_rev in
      (* pop order is reverse script order; [pks] is script order *)
      let st =
        List.fold_left
          (fun st pk ->
            match pk with
            | Const c -> { st with keys = c :: st.keys }
            | _ -> st)
          st pks
      in
      let mv, st = pop st in
      match const_num mv with
      | `Bad -> unsat st "non-canonical multisig signature count"
      | `Dyn -> unknown_halt st "witness-supplied multisig signature count"
      | `Num m when m < 1 || m > n ->
          unsat st "multisig signature count out of range"
      | `Num m ->
          let sigs_rev, st = pop_n m [] st in
          let sigs = List.rev sigs_rev in
          let _dummy, st = pop st in
          let pk_consts =
            List.filter_map
              (function Const c -> Some c | _ -> None)
              pks
          in
          let res =
            if List.length pk_consts = n then Msig (pk_consts, sigs)
            else Opaque "non-constant multisig key operand"
          in
          if verify then demand true res st ~why:"CHECKMULTISIGVERIFY failed"
          else push st res)

(* ------------------------------------------------------------------ *)
(* Path enumeration. *)

let max_conditionals = 8

let rec exec_nodes nodes st =
  match nodes with
  | [] -> [ st ]
  | n :: rest ->
      exec_node n st
      |> List.concat_map (fun s ->
             if s.halted then [ s ] else exec_nodes rest s)

and exec_node n st =
  if st.halted then [ st ]
  else
    match n with
    | Op op -> [ exec_op op st ]
    | Cond (negated, thn, els) -> (
        let cond, st = pop st in
        match static_truth cond with
        | Some b ->
            (* Constant condition: one arm is dead code. *)
            let sel = if negated then not b else b in
            let live, dead = if sel then (thn, els) else (els, thn) in
            let st = { st with taken = st.taken ^ (if sel then "T" else "F") } in
            let st =
              if dead = [] then st
              else
                pdiag st Diag.Dead_branch Diag.Warning
                  "branch gated by a constant condition can never run"
            in
            exec_nodes live st
        | None ->
            let fork sel arm =
              let st = { st with taken = st.taken ^ (if sel then "T" else "F") } in
              let st =
                demand (if negated then not sel else sel) cond st
                  ~why:"branch condition pinned the other way"
              in
              if st.halted then [ st ] else exec_nodes arm st
            in
            fork true thn @ fork false els)

let finalize st =
  let st =
    if st.halted then st
    else
      let top, st = peek st in
      demand true top st ~why:"final stack top falsy"
  in
  let verdict : verdict =
    match st.status with
    | St_ok -> `Sat
    | St_unsat why -> `Unsat why
    | St_unknown why -> `Unknown why
  in
  { taken = (if st.taken = "" then "-" else st.taken);
    verdict;
    arity = st.nslots;
    slots = List.map snd (IM.bindings st.slots);
    cltv = List.rev st.cltv;
    csv = st.csv;
    keys = List.sort_uniq compare st.keys;
    notes = List.rev st.notes }

let count_conds ops =
  List.length
    (List.filter (function Script.If | Script.Notif -> true | _ -> false) ops)

let analyze (s : Script.t) : t =
  match s with
  | Script.Return :: _ ->
      (* Data-carrier output: intentionally unspendable, by design. *)
      { paths =
          [ { taken = "-"; verdict = `Unsat "OP_RETURN data carrier";
              arity = 0; slots = []; cltv = []; csv = 0; keys = [];
              notes = [] } ];
        parse_ok = true; data_carrier = true; used_keys = [];
        diags =
          [ (Diag.Data_carrier, Diag.Info, "-",
             "OP_RETURN-led script carries data and is unspendable by design") ] }
  | _ -> (
      match parse s with
      | Error () ->
          { paths = []; parse_ok = false; data_carrier = false; used_keys = [];
            diags =
              [ (Diag.Unbalanced_conditional, Diag.Error, "-",
                 "If/Notif/Else/Endif nesting never balances; every spend fails") ] }
      | Ok nodes ->
          if count_conds s > max_conditionals then
            { paths =
                [ { taken = "-"; verdict = `Unknown "too many conditionals";
                    arity = 0; slots = []; cltv = []; csv = 0; keys = [];
                    notes = [] } ];
              parse_ok = true; data_carrier = false; used_keys = []; diags = [] }
          else
            let states = exec_nodes nodes init_state in
            let paths = List.map finalize states in
            let used_keys =
              List.sort_uniq compare
                (List.concat_map (fun (p : path) -> p.keys) paths)
            in
            let pdiags =
              List.concat_map (fun st -> List.rev st.pdiags) states
            in
            let sat_or_unknown =
              List.exists
                (fun p -> match p.verdict with `Unsat _ -> false | _ -> true)
                paths
            in
            let structural =
              if sat_or_unknown then
                (* Certain-failure arms of a live script are only worth a
                   warning: the script still has working spend paths. *)
                List.filter_map
                  (fun p ->
                    match p.verdict with
                    | `Unsat why ->
                        Some
                          (Diag.Guaranteed_failure, Diag.Warning, p.taken, why)
                    | _ -> None)
                  paths
              else
                [ (Diag.Unspendable_script, Diag.Error, "-",
                   "no branch combination of this script is satisfiable") ]
            in
            { paths; parse_ok = true; data_carrier = false; used_keys;
              diags = pdiags @ structural })

let satisfiable a =
  a.data_carrier
  || List.exists
       (fun p -> match p.verdict with `Unsat _ -> false | _ -> true)
       a.paths

let locktime_compatible a n =
  List.exists
    (fun p ->
      match p.verdict with
      | `Unsat _ -> false
      | `Sat | `Unknown _ ->
          List.for_all
            (fun (cls, t) -> cls = locktime_class n && n >= t)
            p.cltv)
    a.paths
