module Interp = Rsti_machine.Interp

let extern_called_times name n (o : Interp.outcome) =
  Option.value ~default:0 (List.assoc_opt name o.extern_profile) >= n

let extern_called name o = extern_called_times name 1 o

let func_called name (o : Interp.outcome) = List.mem_assoc name o.call_profile

let contains_sub ~sub s =
  let n = String.length s and m = String.length sub in
  if m = 0 then true
  else begin
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  end

let output_contains sub (o : Interp.outcome) = contains_sub ~sub o.output
