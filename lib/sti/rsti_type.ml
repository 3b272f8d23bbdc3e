type mechanism = Stwc | Stc | Stl | Parts | Nop

let mechanism_to_string = function
  | Stwc -> "RSTI-STWC"
  | Stc -> "RSTI-STC"
  | Stl -> "RSTI-STL"
  | Parts -> "PARTS"
  | Nop -> "baseline"

let all_mechanisms = [ Stwc; Stc; Stl ]

type t = { rt_types : string list; rt_scope : string list; rt_read_only : bool }

let make ~types ~scope ~read_only =
  {
    rt_types = List.sort_uniq compare types;
    rt_scope = List.sort_uniq compare scope;
    rt_read_only = read_only;
  }

let to_string t =
  Printf.sprintf "{%s} @ {%s} %s"
    (String.concat "," t.rt_types)
    (String.concat "," t.rt_scope)
    (if t.rt_read_only then "R" else "R/W")

(* FNV-1a over the canonical string, then a splitmix finalizer so that
   near-identical strings still give wildly different modifiers. *)
let hash_string s =
  let fnv_offset = 0xCBF29CE484222325L and fnv_prime = 0x100000001B3L in
  (* A loop, not [String.iter]: a ref no closure captures stays unboxed. *)
  let h = ref fnv_offset in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) fnv_prime
  done;
  Rsti_util.Splitmix.next64 (Rsti_util.Splitmix.create !h)

let modifier t = hash_string ("rsti:" ^ to_string t)

let parts_modifier basic_type = hash_string ("parts:" ^ basic_type)

let equal a b = a = b
let compare = compare
