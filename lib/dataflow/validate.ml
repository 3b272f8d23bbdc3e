(* The PAC-typestate translation validator.

   [Instrument] promises a discipline: pointers are signed at rest and
   raw in flight. Every store to an instrumented slot goes through a
   Ksign whose modifier is the slot's RSTI-type hash; every load comes
   back through a Kauth under the same modifier; legitimate casts are
   authenticate/re-sign pairs (STWC/STL); pointers handed to external
   code are stripped; STL re-signs at call and return boundaries. This
   module re-derives those obligations from the *instrumented* IR alone
   and checks them against the [Analysis] the instrumentation claims to
   have followed — a translation validator in the classic sense: it does
   not trust the rewriter, it checks its output.

   Registers are assigned once ([Ir]), so a register's provenance
   typestate (fresh load result, sign output, strip/re-sign output,
   pp-library output) is fixed by its one defining instruction.
   The checker builds a def table per function — and reports a second
   definition of any register as an issue rather than trusting the IR
   for it — then walks the blocks once, in array order, reading each
   operand's typestate off the table. The typestates feed two kinds of
   checks:

   - structural, at each instruction: a sign's output may only flow into
     the store it guards, an auth may only consume a fresh load, a
     re-sign must pair with a pointer cast (STWC), extern calls take
     stripped arguments, STL boundaries re-sign;
   - summary, per slot across the module: instrumentation is
     all-or-nothing per slot, so a slot that is authenticated anywhere
     must have every pointer store signed and every pointer load
     authenticated, under the one modifier [Analysis] derives for it.
     Whole-slot elision (sign and auth dropped together) passes; a
     single dropped sign while the auths remain does not.

   Accesses through the pointer-to-pointer runtime are exempt exactly
   where [Instrument] exempts them: loads/stores whose address register
   is a pp-library output, and pp-protected parameter slots (loads
   authenticated by [Pp_auth], spill store raw). *)

module Ir = Rsti_ir.Ir
module Ctype = Rsti_minic.Ctype
module Analysis = Rsti_sti.Analysis
module Rsti_type = Rsti_sti.Rsti_type

type issue = { i_fn : string; i_what : string }

type report = {
  mech : Rsti_type.mechanism;
  issues : issue list;
  funcs : int;
  checked_slots : int; (* pointer-bearing slots seen *)
  signed_slots : int;  (* slots carrying sign/auth instrumentation *)
}

let ok r = r.issues = []

(* ------------------------------------------------------------------ *)
(* Register typestates                                                 *)
(* ------------------------------------------------------------------ *)

type vstate =
  | Vother                                        (* ordinary raw value *)
  | Vloaded of Ir.slot          (* fresh pointer load: possibly signed
                                   in-memory bits, awaiting auth *)
  | Vsigned of Ir.modifier * Rsti_pa.Key.which    (* Ksign output *)
  | Vresign                                       (* Kresign output *)
  | Vstrip                                        (* Kstrip output *)
  | Vpp                                 (* pp-runtime library output *)

(* The cast shapes [Instrument] re-signs under STWC/STL. *)
let cast_pair_guard from_ty to_ty =
  Ctype.is_pointer from_ty && Ctype.is_pointer to_ty
  && not
       (Ctype.equal
          (Ctype.strip_all_quals from_ty)
          (Ctype.strip_all_quals to_ty))

(* Operand positions of an instruction, with flags saying whether that
   position may legitimately consume a Vsigned / a Vloaded value. *)
let positions (i : Ir.instr_desc) : (Ir.value * bool * bool) list =
  let raw v = (v, false, false) in
  match i with
  | Ir.Alloca _ -> []
  | Ir.Load { addr; _ } -> [ raw addr ]
  | Ir.Store { src; addr; _ } -> [ (src, true, false); raw addr ]
  | Ir.Gep { base; _ } -> [ raw base ]
  | Ir.Gepidx { base; idx; _ } -> [ raw base; raw idx ]
  | Ir.Bitcast { src; _ }
  | Ir.Cast_num { src; _ }
  | Ir.Neg { src; _ }
  | Ir.Lognot { src; _ }
  | Ir.Bitnot { src; _ } -> [ raw src ]
  | Ir.Binop { a; b; _ } -> [ raw a; raw b ]
  | Ir.Call { callee; args; _ } ->
      (match callee with Ir.Indirect v -> [ raw v ] | Ir.Direct _ -> [])
      @ List.map raw args
  | Ir.Pac p ->
      [ (p.Ir.p_src, false, p.Ir.p_kind = Ir.Kauth); raw p.Ir.p_slot_addr ]
  | Ir.Pp (Ir.Pp_add { pp_addr; _ }) -> [ raw pp_addr ]
  | Ir.Pp (Ir.Pp_sign { src; slot_addr; _ }) -> [ raw src; raw slot_addr ]
  | Ir.Pp (Ir.Pp_auth { src; slot_addr; _ }) ->
      [ (src, false, true); raw slot_addr ]
  | Ir.Pp (Ir.Pp_add_tbi { src; _ }) -> [ raw src ]

(* ------------------------------------------------------------------ *)
(* Per-slot summaries                                                  *)
(* ------------------------------------------------------------------ *)

type slot_sum = {
  slot : Ir.slot;
  mutable signs : int;
  mutable auths : int;
  mutable raw_stores : int;  (* pointer stores without a sign *)
  mutable raw_loads : int;   (* pointer loads never authenticated *)
  mutable extra_uses : int;  (* loaded value used before/without auth *)
  mutable pp_prot : bool;    (* pp-protected parameter slot *)
  mutable seen_in : string list;
}

(* Verdict tallies for the metrics registry; always-on like the cache's. *)
let c_checks = Rsti_observe.Observe.Metrics.counter "validate.checks"
let c_ok = Rsti_observe.Observe.Metrics.counter "validate.ok"
let c_rejected = Rsti_observe.Observe.Metrics.counter "validate.rejected"
let c_issues = Rsti_observe.Observe.Metrics.counter "validate.issues"

let check anal mech (m : Ir.modul) : report =
  let issues = ref [] in
  let issue fn fmt =
    Printf.ksprintf
      (fun s -> issues := { i_fn = fn; i_what = s } :: !issues)
      fmt
  in
  let defined = Hashtbl.create 16 in
  List.iter (fun (f : Ir.func) -> Hashtbl.replace defined f.Ir.name ()) m.Ir.m_funcs;
  let externs = Hashtbl.create 16 in
  List.iter
    (fun (name, _) ->
      if not (Hashtbl.mem defined name) then Hashtbl.replace externs name ())
    m.Ir.m_externs;
  let sums : (string, slot_sum) Hashtbl.t = Hashtbl.create 64 in
  let sum_of fname slot =
    let k = Ir.slot_to_string slot in
    let s =
      match Hashtbl.find_opt sums k with
      | Some s -> s
      | None ->
          let s =
            {
              slot;
              signs = 0;
              auths = 0;
              raw_stores = 0;
              raw_loads = 0;
              extra_uses = 0;
              pp_prot = false;
              seen_in = [];
            }
          in
          Hashtbl.replace sums k s;
          s
    in
    if not (List.mem fname s.seen_in) then s.seen_in <- fname :: s.seen_in;
    s
  in
  let expected_mod slot =
    let h = Analysis.modifier_of anal mech slot in
    match mech with Rsti_type.Stl -> Ir.Mloc h | _ -> Ir.Mconst h
  in
  let track_casts = mech = Rsti_type.Stwc || mech = Rsti_type.Stl in
  let check_function (fn : Ir.func) =
    let fname = fn.Ir.name in
    (* The def table: each register's one defining instruction. *)
    let defs = Hashtbl.create 64 in
    Ir.iter_instrs
      (fun ins ->
        match Ir.def_reg ins.Ir.i with
        | Some r when Hashtbl.mem defs r ->
            issue fname "register %%r%d defined twice" r
        | Some r -> Hashtbl.replace defs r ins.Ir.i
        | None -> ())
      fn;
    (* Whether [v] is a pp-library output. A load's typestate asks this
       of its address without going through [sv], so a malformed module
       whose load addresses its own result cannot loop. *)
    let def_pp = function
      | Ir.Reg r -> (
          match Hashtbl.find_opt defs r with
          | Some (Ir.Pp _) -> true
          | _ -> false)
      | _ -> false
    in
    (* A register's typestate, from its definition; parameters (no
       defining instruction) and non-registers are [Vother]. *)
    let sv = function
      | Ir.Reg r -> (
          match Hashtbl.find_opt defs r with
          | Some (Ir.Load { addr; ty; slot; _ }) ->
              if def_pp addr then Vother (* pp inner access: raw *)
              else if Ctype.is_pointer ty then Vloaded slot
              else Vother
          | Some (Ir.Pac p) -> (
              match p.Ir.p_kind with
              | Ir.Ksign -> Vsigned (p.Ir.p_mod, p.Ir.p_key)
              | Ir.Kauth -> Vother
              | Ir.Kresign -> Vresign
              | Ir.Kstrip -> Vstrip)
          | Some (Ir.Pp _) -> Vpp
          | _ -> Vother)
      | _ -> Vother
    in
    (* function-local side tables over the SSA registers *)
    let loads = Hashtbl.create 32 in (* reg -> (slot, ty) of a ptr load *)
    let authed = Hashtbl.create 32 in
    let casts = Hashtbl.create 8 in (* reg -> (from_ty, to_ty), unpaired *)
    let signs_pending = Hashtbl.create 8 in
    let visit (ins : Ir.instr) =
      List.iter
        (fun (v, ok_signed, ok_loaded) ->
          match sv v with
          | Vsigned _ when not ok_signed ->
              issue fname "signed value %s escapes into flight"
                (Ir.value_to_string v)
          | Vloaded slot when not ok_loaded ->
              (sum_of fname slot).extra_uses <-
                (sum_of fname slot).extra_uses + 1
          | _ -> ())
        (positions ins.Ir.i);
      match ins.Ir.i with
      | Ir.Load { dst; addr; ty; slot } ->
          if def_pp addr then () (* pp inner access: exempt *)
          else if Ctype.is_pointer ty then Hashtbl.replace loads dst (slot, ty)
      | Ir.Store { src; addr; ty; slot } ->
          if def_pp addr then ()
          else if Ctype.is_pointer ty then begin
            let s = sum_of fname slot in
            match sv src with
            | Vsigned (md, key) ->
                s.signs <- s.signs + 1;
                (match src with
                | Ir.Reg r -> Hashtbl.remove signs_pending r
                | _ -> ());
                if md <> expected_mod slot then
                  issue fname
                    "store to %s signed with modifier %s, expected %s"
                    (Ir.slot_to_string slot)
                    (Ir.modifier_to_string md)
                    (Ir.modifier_to_string (expected_mod slot));
                if key <> Analysis.key_for ty then
                  issue fname "store to %s signed under the wrong PA key"
                    (Ir.slot_to_string slot)
            | _ -> s.raw_stores <- s.raw_stores + 1
          end
      | Ir.Pac p -> (
          if mech = Rsti_type.Nop then
            issue fname "PAC op in an uninstrumented (nop) module";
          match p.Ir.p_kind with
          | Ir.Ksign -> Hashtbl.replace signs_pending p.Ir.p_dst ()
          | Ir.Kauth -> (
              match p.Ir.p_src with
              | Ir.Reg r when Hashtbl.mem loads r ->
                  let slot, ty = Hashtbl.find loads r in
                  Hashtbl.replace authed r ();
                  let s = sum_of fname slot in
                  s.auths <- s.auths + 1;
                  if p.Ir.p_mod <> expected_mod slot then
                    issue fname
                      "load of %s authenticated with modifier %s, expected %s"
                      (Ir.slot_to_string slot)
                      (Ir.modifier_to_string p.Ir.p_mod)
                      (Ir.modifier_to_string (expected_mod slot));
                  if p.Ir.p_key <> Analysis.key_for ty then
                    issue fname "load of %s authenticated under the wrong PA key"
                      (Ir.slot_to_string slot);
                  (match (p.Ir.p_mod, p.Ir.p_slot_addr) with
                  | Ir.Mloc _, Ir.Null ->
                      issue fname
                        "location-bound auth of %s carries no slot address"
                        (Ir.slot_to_string slot)
                  | _ -> ())
              | src ->
                  issue fname "auth source %s is not a fresh load result"
                    (Ir.value_to_string src))
          | Ir.Kresign -> (
              if not track_casts then
                issue fname "re-sign under %s (only STWC/STL re-sign)"
                  (Rsti_type.mechanism_to_string mech);
              match p.Ir.p_src with
              | Ir.Reg r when Hashtbl.mem casts r ->
                  let from_ty, to_ty = Hashtbl.find casts r in
                  Hashtbl.remove casts r;
                  let exp_to =
                    Ir.Mconst (Analysis.modifier_of anal mech (Ir.Sanon to_ty))
                  in
                  let exp_from =
                    Ir.Mconst
                      (Analysis.modifier_of anal mech (Ir.Sanon from_ty))
                  in
                  if p.Ir.p_mod <> exp_to || p.Ir.p_mod_from <> exp_from then
                    issue fname
                      "cast re-sign modifiers do not match the cast %s -> %s"
                      (Ctype.to_string from_ty) (Ctype.to_string to_ty);
                  if p.Ir.p_key <> Analysis.key_for to_ty then
                    issue fname "cast re-sign under the wrong PA key"
              | _ ->
                  (* STL re-signs raw values at call/return boundaries;
                     under STWC every re-sign must pair with a cast. *)
                  if mech = Rsti_type.Stwc then
                    issue fname "re-sign not paired with a pointer cast")
          | Ir.Kstrip -> ())
      | Ir.Bitcast { dst; from_ty; to_ty; _ } ->
          if track_casts && cast_pair_guard from_ty to_ty then
            Hashtbl.replace casts dst (from_ty, to_ty)
      | Ir.Pp pp -> (
          if mech = Rsti_type.Nop then
            issue fname "pp op in an uninstrumented (nop) module";
          match pp with
          | Ir.Pp_auth { src = Ir.Reg r; _ } when Hashtbl.mem loads r ->
              Hashtbl.replace authed r ();
              let slot, _ = Hashtbl.find loads r in
              (sum_of fname slot).pp_prot <- true
          | Ir.Pp_auth { src; _ } ->
              issue fname "pp_auth source %s is not a fresh load result"
                (Ir.value_to_string src)
          | Ir.Pp_sign { src = Ir.Reg r; _ } | Ir.Pp_add { pp_addr = Ir.Reg r; _ }
            ->
              Hashtbl.remove casts r (* pp-wrapped cast: re-sign exempt *)
          | _ -> ())
      | Ir.Call { callee; args; arg_tys; _ } ->
          if mech <> Rsti_type.Nop then
            List.iteri
              (fun j arg ->
                match List.nth_opt arg_tys j with
                | Some ty when Ctype.is_pointer ty -> (
                    let stv = sv arg in
                    match callee with
                    | Ir.Direct f when Hashtbl.mem externs f ->
                        if stv <> Vstrip && stv <> Vpp then
                          issue fname
                            "pointer argument %d to extern %s is not stripped"
                            j f
                    | Ir.Direct _ | Ir.Indirect _ ->
                        if
                          mech = Rsti_type.Stl && stv <> Vresign && stv <> Vpp
                        then
                          issue fname
                            "STL pointer argument %d of a call is not re-signed"
                            j)
                | _ -> ())
              args
      | _ -> ()
    in
    Array.iter
      (fun (b : Ir.block) ->
        List.iter visit b.Ir.instrs;
        match b.Ir.term with
        | Ir.Ret (Some v) -> (
            (match sv v with
            | Vsigned _ -> issue fname "signed value returned raw"
            | Vloaded slot ->
                (sum_of fname slot).extra_uses <-
                  (sum_of fname slot).extra_uses + 1
            | _ -> ());
            if
              mech = Rsti_type.Stl
              && Ctype.is_pointer fn.Ir.ret
              && sv v <> Vresign
            then issue fname "STL pointer return is not re-signed")
        | Ir.Condbr (c, _, _) -> (
            match sv c with
            | Vsigned _ -> issue fname "signed value used in a branch"
            | _ -> ())
        | _ -> ())
      fn.Ir.blocks;
    Hashtbl.iter
      (fun r ((slot, _ty) : Ir.slot * Ctype.t) ->
        if not (Hashtbl.mem authed r) then
          let s = sum_of fname slot in
          s.raw_loads <- s.raw_loads + 1)
      loads;
    Hashtbl.iter
      (fun r (_ : Ctype.t * Ctype.t) ->
        issue fname "pointer cast %%r%d is never re-signed" r)
      casts;
    Hashtbl.iter
      (fun r () -> issue fname "sign result %%r%d is never stored" r)
      signs_pending
  in
  List.iter check_function m.Ir.m_funcs;
  (* Module-level slot consistency: all-or-nothing per slot. *)
  let signed_slots = ref 0 in
  Hashtbl.iter
    (fun _ s ->
      let where = match s.seen_in with f :: _ -> f | [] -> "<module>" in
      if s.pp_prot then begin
        if s.signs > 0 || s.auths > 0 then
          issue where "pp-protected slot %s is also PAC-instrumented"
            (Ir.slot_to_string s.slot)
      end
      else if s.signs > 0 || s.auths > 0 then begin
        incr signed_slots;
        if s.raw_stores > 0 then
          issue where "slot %s: %d unsigned store(s) while the slot is signed"
            (Ir.slot_to_string s.slot) s.raw_stores;
        if s.raw_loads > 0 then
          issue where
            "slot %s: %d unauthenticated load(s) while the slot is signed"
            (Ir.slot_to_string s.slot) s.raw_loads;
        if s.extra_uses > 0 then
          issue where
            "slot %s: loaded value used %d time(s) without authentication"
            (Ir.slot_to_string s.slot) s.extra_uses
      end)
    sums;
  let r =
    {
      mech;
      issues = List.rev !issues;
      funcs = List.length m.Ir.m_funcs;
      checked_slots = Hashtbl.length sums;
      signed_slots = !signed_slots;
    }
  in
  let module M = Rsti_observe.Observe.Metrics in
  M.incr c_checks;
  M.incr (if r.issues = [] then c_ok else c_rejected);
  M.add c_issues (List.length r.issues);
  r

let report_to_string r =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "validate[%s]: %d function(s), %d slot(s), %d signed: %s\n"
    (Rsti_type.mechanism_to_string r.mech)
    r.funcs r.checked_slots r.signed_slots
    (if ok r then "OK" else Printf.sprintf "%d issue(s)" (List.length r.issues));
  List.iter
    (fun i -> Printf.bprintf buf "  [%s] %s\n" i.i_fn i.i_what)
    r.issues;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Fault injection for the validator's own tests                       *)
(* ------------------------------------------------------------------ *)

(* Drop one Ksign whose guarded slot is authenticated somewhere in the
   module, rewriting its store to the raw source — the "compiler forgot
   to sign this store" bug class. Returns None if the module carries no
   such sign (e.g. it was never instrumented). *)
let break_one_sign (m : Ir.modul) : Ir.modul option =
  let authed_slots = Hashtbl.create 32 in
  List.iter
    (fun (fn : Ir.func) ->
      let loads = Hashtbl.create 32 in
      Ir.iter_instrs
        (fun ins ->
          match ins.Ir.i with
          | Ir.Load { dst; slot; _ } -> Hashtbl.replace loads dst slot
          | _ -> ())
        fn;
      Ir.iter_instrs
        (fun ins ->
          match ins.Ir.i with
          | Ir.Pac { p_kind = Ir.Kauth; p_src = Ir.Reg r; _ } -> (
              match Hashtbl.find_opt loads r with
              | Some slot ->
                  Hashtbl.replace authed_slots (Ir.slot_to_string slot) ()
              | None -> ())
          | _ -> ())
        fn)
    m.Ir.m_funcs;
  let broke = ref false in
  let fix_block (b : Ir.block) =
    if !broke then b
    else begin
      let paired_store (p : Ir.pac) rest =
        List.exists
          (fun (ins : Ir.instr) ->
            match ins.Ir.i with
            | Ir.Store { src = Ir.Reg r; slot; _ } ->
                r = p.Ir.p_dst
                && Hashtbl.mem authed_slots (Ir.slot_to_string slot)
            | _ -> false)
          rest
      in
      let rec find = function
        | { Ir.i = Ir.Pac ({ p_kind = Ir.Ksign; _ } as p); _ } :: rest
          when paired_store p rest ->
            Some p
        | _ :: rest -> find rest
        | [] -> None
      in
      match find b.Ir.instrs with
      | None -> b
      | Some p ->
          broke := true;
          let instrs =
            List.filter_map
              (fun (ins : Ir.instr) ->
                match ins.Ir.i with
                | Ir.Pac { p_kind = Ir.Ksign; p_dst; _ }
                  when p_dst = p.Ir.p_dst -> None
                | Ir.Store { src = Ir.Reg r; addr; ty; slot }
                  when r = p.Ir.p_dst ->
                    Some
                      {
                        ins with
                        Ir.i = Ir.Store { src = p.Ir.p_src; addr; ty; slot };
                      }
                | _ -> Some ins)
              b.Ir.instrs
          in
          { b with Ir.instrs }
    end
  in
  let funcs =
    List.map
      (fun (fn : Ir.func) ->
        { fn with Ir.blocks = Array.map fix_block fn.Ir.blocks })
      m.Ir.m_funcs
  in
  if !broke then Some { m with Ir.m_funcs = funcs } else None
