(* Tests for rsti_util: RNG, statistics, union-find, table rendering. *)

module Sm = Rsti_util.Splitmix
module Stats = Rsti_util.Stats
module Uf = Rsti_util.Uf
module Tab = Rsti_util.Tab

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg = Alcotest.(check (float 1e-9)) msg

(* ----------------------------- splitmix ---------------------------- *)

let test_rng_deterministic () =
  let a = Sm.create 42L and b = Sm.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Sm.next64 a) (Sm.next64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Sm.create 1L and b = Sm.create 2L in
  checkb "different seeds differ" true (Sm.next64 a <> Sm.next64 b)

let test_rng_int_bounds () =
  let rng = Sm.create 7L in
  for _ = 1 to 1000 do
    let v = Sm.int rng 13 in
    checkb "in [0,13)" true (v >= 0 && v < 13)
  done

let test_rng_int_in () =
  let rng = Sm.create 7L in
  for _ = 1 to 1000 do
    let v = Sm.int_in rng (-5) 5 in
    checkb "in [-5,5]" true (v >= -5 && v <= 5)
  done

let test_rng_int_rejects_bad () =
  let rng = Sm.create 1L in
  Alcotest.check_raises "bound 0" (Invalid_argument "Splitmix.int: bound must be positive")
    (fun () -> ignore (Sm.int rng 0))

let test_rng_pick () =
  let rng = Sm.create 3L in
  for _ = 1 to 50 do
    checkb "picked member" true (List.mem (Sm.pick rng [ 1; 2; 3 ]) [ 1; 2; 3 ])
  done

let test_rng_weighted () =
  let rng = Sm.create 3L in
  for _ = 1 to 200 do
    (* zero-weight entries must never be chosen *)
    let v = Sm.weighted rng [ (0, "never"); (5, "a"); (5, "b") ] in
    checkb "never-zero-weight" true (v <> "never")
  done

let test_rng_shuffle_permutation () =
  let rng = Sm.create 9L in
  let a = Array.init 50 Fun.id in
  Sm.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "same multiset" (Array.init 50 Fun.id) sorted

let test_rng_split_independent () =
  let a = Sm.create 5L in
  let b = Sm.split a in
  checkb "split streams differ" true (Sm.next64 a <> Sm.next64 b)

let test_rng_chance_extremes () =
  let rng = Sm.create 11L in
  for _ = 1 to 100 do
    checkb "p=0 never" false (Sm.chance rng 0.0)
  done;
  for _ = 1 to 100 do
    checkb "p=1 always" true (Sm.chance rng 1.0)
  done

(* ------------------------------ stats ------------------------------ *)

let test_mean () = checkf "mean" 2.5 (Stats.mean [ 1.; 2.; 3.; 4. ])

let test_mean_empty () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty list")
    (fun () -> ignore (Stats.mean []))

let test_geomean () = checkf "geomean" 4. (Stats.geomean [ 2.; 8. ])

let test_geomean_rejects_nonpositive () =
  Alcotest.check_raises "geomean 0" (Invalid_argument "Stats.geomean: non-positive value")
    (fun () -> ignore (Stats.geomean [ 1.; 0. ]))

let test_geomean_overhead_zero () =
  checkf "all-zero overheads" 0. (Stats.geomean_overhead [ 0.; 0.; 0. ])

let test_geomean_overhead_known () =
  (* ratios 1.1 and 1.2: geomean = sqrt(1.32) *)
  checkf "known overhead geomean"
    ((sqrt 1.32 -. 1.) *. 100.)
    (Stats.geomean_overhead [ 10.; 20. ])

let test_quantile_median () =
  checkf "median odd" 3. (Stats.median [ 1.; 2.; 3.; 4.; 5. ]);
  checkf "median even" 2.5 (Stats.median [ 1.; 2.; 3.; 4. ])

let test_quantile_extremes () =
  let xs = [ 3.; 1.; 2. ] in
  checkf "q0 = min" 1. (Stats.quantile 0. xs);
  checkf "q1 = max" 3. (Stats.quantile 1. xs)

let test_quantile_interpolates () =
  checkf "q25 of 1..5" 2. (Stats.quantile 0.25 [ 1.; 2.; 3.; 4.; 5. ])

let test_boxplot () =
  let b = Stats.boxplot [ 1.; 2.; 3.; 4.; 100. ] in
  checkf "median" 3. b.Stats.median;
  checki "one outlier" 1 (List.length b.Stats.outliers);
  checkb "outlier is 100" true (List.mem 100. b.Stats.outliers);
  checkb "max excludes outlier" true (b.Stats.maximum < 100.)

let test_boxplot_single () =
  let b = Stats.boxplot [ 5. ] in
  checkf "min" 5. b.Stats.minimum;
  checkf "max" 5. b.Stats.maximum;
  checki "no outliers" 0 (List.length b.Stats.outliers)

let test_pearson_perfect () =
  checkf "r=1" 1. (Stats.pearson [ 1.; 2.; 3. ] [ 10.; 20.; 30. ]);
  checkf "r=-1" (-1.) (Stats.pearson [ 1.; 2.; 3. ] [ 30.; 20.; 10. ])

let test_pearson_constant () =
  checkf "degenerate r=0" 0. (Stats.pearson [ 1.; 1.; 1. ] [ 1.; 2.; 3. ])

let test_pearson_mismatch () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Stats.pearson: length mismatch") (fun () ->
      ignore (Stats.pearson [ 1. ] [ 1.; 2. ]))

let test_stddev () =
  checkf "stddev" (sqrt 2.5) (Stats.stddev [ 1.; 2.; 3.; 4.; 5. ])

(* ------------------------------- uf -------------------------------- *)

let test_uf_singleton () =
  let u = Uf.create () in
  check Alcotest.string "own root" "x" (Uf.find u "x")

let test_uf_union () =
  let u = Uf.create () in
  Uf.union u "a" "b";
  Uf.union u "b" "c";
  checkb "transitive" true (Uf.same u "a" "c");
  checkb "separate" false (Uf.same u "a" "d")

let test_uf_classes () =
  let u = Uf.create () in
  Uf.union u "a" "b";
  let cls = Uf.classes u ~members:[ "a"; "b"; "c" ] in
  checki "two classes" 2 (List.length cls);
  let sizes = List.map (fun (_, m) -> List.length m) cls |> List.sort compare in
  check Alcotest.(list int) "sizes 1,2" [ 1; 2 ] sizes

(* ------------------------------- tab ------------------------------- *)

let test_tab_alignment () =
  let s = Tab.render ~header:[ "name"; "n" ] [ [ "a"; "1" ]; [ "bb"; "22" ] ] in
  checkb "has separator" true (String.length s > 0 && String.contains s '-');
  (* right-aligned numeric column: "1" padded to width 2 *)
  checkb "right aligned" true
    (String.split_on_char '\n' s |> List.exists (fun l -> l = "a      1"))

let test_tab_pads_short_rows () =
  let s = Tab.render ~header:[ "a"; "b" ] [ [ "x" ] ] in
  checkb "renders" true (String.length s > 0)

let test_tab_rejects_wide_rows () =
  Alcotest.check_raises "wide row" (Invalid_argument "Tab.render: row wider than header")
    (fun () -> ignore (Tab.render ~header:[ "a" ] [ [ "x"; "y" ] ]))

(* qcheck properties *)

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantile monotone in q" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 20) (float_range (-100.) 100.))
              (pair (float_range 0. 1.) (float_range 0. 1.)))
    (fun (xs, (q1, q2)) ->
      QCheck.assume (xs <> []);
      let lo = min q1 q2 and hi = max q1 q2 in
      Stats.quantile lo xs <= Stats.quantile hi xs +. 1e-9)

let tests =
  [
    Alcotest.test_case "rng: deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng: seed sensitivity" `Quick test_rng_seed_sensitivity;
    Alcotest.test_case "rng: int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng: int_in bounds" `Quick test_rng_int_in;
    Alcotest.test_case "rng: rejects bad bound" `Quick test_rng_int_rejects_bad;
    Alcotest.test_case "rng: pick membership" `Quick test_rng_pick;
    Alcotest.test_case "rng: weighted skips zero" `Quick test_rng_weighted;
    Alcotest.test_case "rng: shuffle is permutation" `Quick test_rng_shuffle_permutation;
    Alcotest.test_case "rng: split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "rng: chance extremes" `Quick test_rng_chance_extremes;
    Alcotest.test_case "stats: mean" `Quick test_mean;
    Alcotest.test_case "stats: mean empty" `Quick test_mean_empty;
    Alcotest.test_case "stats: geomean" `Quick test_geomean;
    Alcotest.test_case "stats: geomean non-positive" `Quick test_geomean_rejects_nonpositive;
    Alcotest.test_case "stats: overhead geomean zero" `Quick test_geomean_overhead_zero;
    Alcotest.test_case "stats: overhead geomean known" `Quick test_geomean_overhead_known;
    Alcotest.test_case "stats: median" `Quick test_quantile_median;
    Alcotest.test_case "stats: quantile extremes" `Quick test_quantile_extremes;
    Alcotest.test_case "stats: quantile interpolation" `Quick test_quantile_interpolates;
    Alcotest.test_case "stats: boxplot outliers" `Quick test_boxplot;
    Alcotest.test_case "stats: boxplot single" `Quick test_boxplot_single;
    Alcotest.test_case "stats: pearson perfect" `Quick test_pearson_perfect;
    Alcotest.test_case "stats: pearson degenerate" `Quick test_pearson_constant;
    Alcotest.test_case "stats: pearson mismatch" `Quick test_pearson_mismatch;
    Alcotest.test_case "stats: stddev" `Quick test_stddev;
    Alcotest.test_case "uf: singleton" `Quick test_uf_singleton;
    Alcotest.test_case "uf: union" `Quick test_uf_union;
    Alcotest.test_case "uf: classes" `Quick test_uf_classes;
    Alcotest.test_case "tab: alignment" `Quick test_tab_alignment;
    Alcotest.test_case "tab: short rows" `Quick test_tab_pads_short_rows;
    Alcotest.test_case "tab: wide rows rejected" `Quick test_tab_rejects_wide_rows;
    QCheck_alcotest.to_alcotest prop_quantile_monotone;
  ]
