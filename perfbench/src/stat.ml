(* Order statistics and the metric-name grammar. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest value with at least [p]% of
   the samples at or below it. *)
let percentile p a =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let s = sorted a in
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))

let median a = percentile 50. a

(* The tail percentile of [n] samples: the highest whole percentile
   (at most 99) that leaves at least 10 samples beyond it. Below 20
   samples no percentile above the median qualifies, so it is the
   median. *)
let tail_pct n =
  if n < 20 then 50
  else min 99 (int_of_float (Float.floor (100. *. (1. -. (10. /. float_of_int n)))))

(* Samples strictly beyond the nearest-rank [p]th percentile. *)
let beyond p n =
  n - int_of_float (Float.ceil (float_of_int p /. 100. *. float_of_int n))

(* Metric names: a letter or digit, then at most 63 letters, digits,
   '_', '.' or '-'. Units: 1 to 16 of letters, digits, '_', '/', '%',
   '.' or '-'. *)
let name_ok s =
  let n = String.length s in
  let alnum c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  in
  n >= 1 && n <= 64
  && alnum s.[0]
  && String.for_all (fun c -> alnum c || c = '_' || c = '.' || c = '-') s

let unit_ok s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || String.contains "_/%.-" c)
       s
