(* Tests for the pointer-authentication substrate: cipher, address
   layout, and pac/aut instruction semantics. *)

module Qarma = Rsti_pa.Qarma
module Vaddr = Rsti_pa.Vaddr
module Key = Rsti_pa.Key
module Pac = Rsti_pa.Pac
module Sm = Rsti_util.Splitmix

let checkb = Alcotest.(check bool)
let check64 = Alcotest.check Alcotest.int64
let checki = Alcotest.(check int)

let key () = Qarma.key_of_rng (Sm.create 77L)

(* The set bits of [x], and a value with the low [w] bits set. *)
let popcount x =
  let rec go n x = if x = 0L then n else go (n + 1) (Int64.logand x (Int64.pred x)) in
  go 0 x

let mask w = if w >= 64 then -1L else Int64.pred (Int64.shift_left 1L w)

(* ------------------------------ qarma ------------------------------ *)

let test_qarma_roundtrip () =
  let k = key () in
  let rng = Sm.create 1L in
  for _ = 1 to 200 do
    let b = Sm.next64 rng and t = Sm.next64 rng in
    check64 "dec(enc(x)) = x" b (Qarma.decrypt ~key:k ~tweak:t (Qarma.encrypt ~key:k ~tweak:t b))
  done

let test_qarma_tweak_sensitivity () =
  let k = key () in
  let e1 = Qarma.encrypt ~key:k ~tweak:1L 42L in
  let e2 = Qarma.encrypt ~key:k ~tweak:2L 42L in
  checkb "different tweaks differ" true (e1 <> e2);
  (* good diffusion: a 1-bit tweak change flips many bits *)
  checkb "avalanche > 10 bits" true (popcount (Int64.logxor e1 e2) > 10)

let test_qarma_key_sensitivity () =
  let k1 = Qarma.key_of_rng (Sm.create 1L) in
  let k2 = Qarma.key_of_rng (Sm.create 2L) in
  checkb "different keys differ" true
    (Qarma.encrypt ~key:k1 ~tweak:0L 5L <> Qarma.encrypt ~key:k2 ~tweak:0L 5L)

let test_qarma_plaintext_avalanche () =
  let k = key () in
  let e1 = Qarma.encrypt ~key:k ~tweak:0L 0L in
  let e2 = Qarma.encrypt ~key:k ~tweak:0L 1L in
  checkb "plaintext avalanche" true (popcount (Int64.logxor e1 e2) > 10)

let test_qarma_deterministic () =
  let k = key () in
  check64 "stable" (Qarma.encrypt ~key:k ~tweak:9L 9L) (Qarma.encrypt ~key:k ~tweak:9L 9L)

let prop_qarma_roundtrip =
  QCheck.Test.make ~name:"qarma decrypt inverts encrypt" ~count:300
    QCheck.(pair int64 int64)
    (fun (block, tweak) ->
      let k = key () in
      Qarma.decrypt ~key:k ~tweak (Qarma.encrypt ~key:k ~tweak block) = block)

let prop_qarma_injective =
  QCheck.Test.make ~name:"qarma injective per tweak" ~count:300
    QCheck.(triple int64 int64 int64)
    (fun (a, b, tweak) ->
      let k = key () in
      a = b || Qarma.encrypt ~key:k ~tweak a <> Qarma.encrypt ~key:k ~tweak b)

(* The cipher as first written, one 4-bit cell at a time on 16-cell
   arrays (cell 0 the most significant nibble): the reference the
   word-sliced {!Qarma} must equal bit for bit. *)
module Cellwise = struct
  let rounds = Qarma.rounds

  let cells_of x =
    Array.init 16 (fun i -> Int64.to_int (Int64.shift_right_logical x (60 - (4 * i))) land 0xF)

  let word_of c =
    Array.fold_left (fun w n -> Int64.logor (Int64.shift_left w 4) (Int64.of_int n)) 0L c

  let invert perm =
    let inv = Array.make 16 0 in
    Array.iteri (fun i p -> inv.(p) <- i) perm;
    inv

  let sbox = [| 10; 13; 14; 6; 15; 7; 3; 5; 9; 8; 0; 12; 11; 1; 2; 4 |]
  let sbox_inv = invert sbox
  let tau = [| 0; 11; 6; 13; 10; 1; 12; 7; 5; 14; 3; 8; 15; 4; 9; 2 |]
  let tau_inv = invert tau
  let h = [| 6; 5; 14; 15; 0; 1; 2; 3; 7; 12; 13; 4; 8; 9; 10; 11 |]
  let lfsr_cells = [| 0; 1; 3; 4; 8; 11; 13 |]

  let lfsr n =
    let b0 = n land 1 and b1 = (n lsr 1) land 1 in
    let b2 = (n lsr 2) land 1 and b3 = (n lsr 3) land 1 in
    ((b0 lxor b1) lsl 3) lor (b3 lsl 2) lor (b2 lsl 1) lor b1

  let rot n r = ((n lsl r) lor (n lsr (4 - r))) land 0xF
  let permute perm s = Array.init 16 (fun i -> s.(perm.(i)))
  let substitute box s = Array.map (fun n -> box.(n)) s

  (* each output cell XORs the other three cells of its column rotated by
     the circulant (0,1,2,1) *)
  let mix_columns s =
    Array.init 16 (fun i ->
        let row = i / 4 and col = i mod 4 in
        let cell d = s.((((row + d) land 3) * 4) + col) in
        rot (cell 1) 1 lxor rot (cell 2) 2 lxor rot (cell 3) 1)

  let xor a b = Array.map2 ( lxor ) a b

  let round_constants =
    let rng = Sm.create 0x5254495F51524D41L in
    Array.init (rounds + 1) (fun _ -> cells_of (Sm.next64 rng))

  let tweak_schedule tweak =
    let ts = Array.make rounds (cells_of tweak) in
    for r = 1 to rounds - 1 do
      let t = permute h ts.(r - 1) in
      Array.iter (fun i -> t.(i) <- lfsr t.(i)) lfsr_cells;
      ts.(r) <- t
    done;
    ts

  let forward k t c s = substitute sbox (mix_columns (permute tau (xor s (xor k (xor t c)))))
  let backward k t c s = xor (permute tau_inv (mix_columns (substitute sbox_inv s))) (xor k (xor t c))
  let reflector a b s = xor (mix_columns (xor s a)) b

  let crypt ~inverse (key : Qarma.key) tweak block =
    let ts = tweak_schedule tweak in
    let k = cells_of key.k0 in
    let w0 = key.w0 in
    let w1 =
      cells_of
        (Int64.logxor
           (Int64.logor (Int64.shift_right_logical w0 1) (Int64.shift_left w0 63))
           (Int64.shift_right_logical w0 63))
    and k1 = mix_columns k in
    let s = ref (cells_of (Int64.logxor block w0)) in
    for i = 0 to rounds - 1 do
      let c = round_constants.(if inverse then rounds else i) in
      s := forward k ts.(i) c !s
    done;
    s := if inverse then reflector k1 w1 !s else reflector w1 k1 !s;
    for i = rounds - 1 downto 0 do
      let c = round_constants.(if inverse then i else rounds) in
      s := backward k ts.(i) c !s
    done;
    Int64.logxor (word_of !s) w0
end

let prop_qarma_word_sliced =
  QCheck.Test.make ~name:"qarma word-sliced = cell-wise" ~count:10_000
    QCheck.(quad int64 int64 int64 int64)
    (fun (k0, w0, tweak, block) ->
      let key = { Qarma.k0; w0 } in
      Qarma.encrypt ~key ~tweak block = Cellwise.crypt ~inverse:false key tweak block
      && Qarma.decrypt ~key ~tweak block = Cellwise.crypt ~inverse:true key tweak block)

(* ------------------------------ vaddr ------------------------------ *)

let test_pac_width () =
  checki "TBI on: 7 bits" 7 (Vaddr.pac_width Vaddr.default);
  checki "TBI off: 15 bits" 15 (Vaddr.pac_width Vaddr.no_tbi)

let test_canonical_low () =
  let p = 0x0000_7FFF_1234_5678L in
  check64 "low canonical unchanged" p (Vaddr.canonical Vaddr.default p);
  checkb "is canonical" true (Vaddr.is_canonical Vaddr.default p)

let test_canonical_clears_pac () =
  (* PAC bits set, bit 55 (the selector) clear *)
  let p = 0x007F_7FFF_1234_5678L in
  checkb "pac'ed not canonical" false (Vaddr.is_canonical Vaddr.no_tbi p);
  check64 "stripped" 0x0000_7FFF_1234_5678L (Vaddr.canonical Vaddr.no_tbi p)

let test_canonical_kernel_half () =
  (* bit 55 set: upper half; canonicalisation sign-extends *)
  let p = Int64.logor 0x0080_0000_0000_0000L 0x1234L in
  let c = Vaddr.canonical Vaddr.no_tbi p in
  checkb "upper bits set" true (Int64.shift_right_logical c 48 = mask 16)

let test_embed_extract () =
  let cfg = Vaddr.no_tbi in
  let p = 0x0000_7FFF_0000_1000L in
  for pac = 0 to 100 do
    let pacv = Int64.of_int pac in
    let s = Vaddr.embed_pac cfg ~pac:pacv p in
    check64 "extract = embed" pacv (Vaddr.extract_pac cfg s)
  done

let test_embed_tbi_preserves_top_byte () =
  let cfg = Vaddr.default in
  let tagged = Vaddr.with_top_byte 0x0000_7FFF_0000_1000L 0xAB in
  let s = Vaddr.embed_pac cfg ~pac:0x5AL tagged in
  checki "tag kept" 0xAB (Vaddr.top_byte s)

let test_corrupt_not_canonical () =
  let cfg = Vaddr.default in
  let p = 0x0000_7FFF_0000_1000L in
  let c = Vaddr.corrupt cfg p in
  checkb "corrupted differs" true (c <> p);
  checkb "corrupted non-canonical" false (Vaddr.is_canonical cfg c)

let test_corrupt_involution () =
  (* flipping the same two bits twice restores the pointer *)
  let cfg = Vaddr.default in
  let p = 0x0000_7FFF_0000_1000L in
  check64 "double corrupt = id" p (Vaddr.corrupt cfg (Vaddr.corrupt cfg p))

let test_top_byte () =
  checki "read tag" 0xCD (Vaddr.top_byte (Vaddr.with_top_byte 5L 0xCD));
  check64 "clear tag" 5L (Vaddr.with_top_byte (Vaddr.with_top_byte 5L 0xCD) 0)

(* ------------------------------- key -------------------------------- *)

let test_key_slots_distinct () =
  let bank = Key.generate ~seed:3L in
  let all = List.map (Key.lookup bank) [ Key.IA; Key.IB; Key.DA; Key.DB; Key.GA ] in
  let distinct = List.sort_uniq compare all in
  checki "five distinct keys" 5 (List.length distinct)

let test_key_of_int () =
  Alcotest.(check string) "key 2 = da" "da" (Key.which_to_string (Key.which_of_int 2));
  checki "roundtrip" 4 (Key.int_of_which (Key.which_of_int 4));
  Alcotest.check_raises "bad key id"
    (Invalid_argument "Key.which_of_int: 9 is not a PA key") (fun () ->
      ignore (Key.which_of_int 9))

(* ------------------------------- pac -------------------------------- *)

let ctx () = Pac.make ~seed:123L ()

(* The PA unit works on a register file; these run one operation on a
   fresh one holding the pointer at byte 0 and the modifier at 8, with
   the result at 16. *)
let regs p modifier =
  let r = Bytes.create 24 in
  Bytes.set_int64_ne r 0 p;
  Bytes.set_int64_ne r 8 modifier;
  r

let result r = Bytes.get_int64_ne r 16

let sign c ~key ~modifier p =
  let r = regs p modifier in
  Pac.sign c ~key r ~dst:16 ~src:0 ~modifier:8;
  result r

let auth c ~key ~modifier p =
  let r = regs p modifier in
  if Pac.auth c ~key r ~dst:16 ~src:0 ~modifier:8 then Ok (result r) else Error (result r)

let strip c p =
  let r = regs p 0L in
  Pac.strip c r ~dst:16 ~src:0;
  result r

let is_signed c p = Pac.is_signed c (regs p 0L) 0

let test_sign_auth_roundtrip () =
  let c = ctx () in
  let p = 0x0000_2000_0000_0040L in
  let s = sign c ~key:Key.DA ~modifier:0xAAL p in
  checkb "signed has pac bits" true (is_signed c s);
  match auth c ~key:Key.DA ~modifier:0xAAL s with
  | Ok q -> check64 "auth strips to original" p q
  | Error _ -> Alcotest.fail "auth should succeed"

let test_auth_wrong_modifier_fails () =
  let c = ctx () in
  let s = sign c ~key:Key.DA ~modifier:0xAAL 0x2000_0000L in
  match auth c ~key:Key.DA ~modifier:0xABL s with
  | Ok _ -> Alcotest.fail "wrong modifier must fail"
  | Error corrupted ->
      checkb "corrupted non-canonical" false
        (Vaddr.is_canonical (Pac.layout c) corrupted)

let test_auth_wrong_key_fails () =
  let c = ctx () in
  let s = sign c ~key:Key.DA ~modifier:1L 0x2000_0000L in
  checkb "wrong key fails" true
    (match auth c ~key:Key.IA ~modifier:1L s with Error _ -> true | Ok _ -> false)

let test_auth_raw_pointer_fails () =
  let c = ctx () in
  (* an unsigned non-null pointer (the attacker's forged value) *)
  checkb "raw pointer rejected" true
    (match auth c ~key:Key.DA ~modifier:1L 0x2000_0040L with
    | Error _ -> true
    | Ok _ -> false)

let test_null_never_signed () =
  let c = ctx () in
  check64 "sign NULL = NULL" 0L (sign c ~key:Key.DA ~modifier:77L 0L);
  checkb "auth NULL ok" true
    (match auth c ~key:Key.DA ~modifier:123L 0L with Ok 0L -> true | _ -> false)

let test_strip () =
  let c = ctx () in
  let p = 0x0000_2000_0000_0040L in
  let s = sign c ~key:Key.DA ~modifier:5L p in
  check64 "xpac strips" p (strip c s)

let test_tbi_tag_does_not_affect_pac () =
  let c = ctx () in
  let p = 0x0000_2000_0000_0040L in
  let s = sign c ~key:Key.DA ~modifier:5L p in
  let tagged = Vaddr.with_top_byte s 0x42 in
  (* authentication ignores the software tag byte under TBI *)
  checkb "tagged still authenticates" true
    (match auth c ~key:Key.DA ~modifier:5L tagged with Ok _ -> true | Error _ -> false)

let test_different_seeds_different_pacs () =
  let c1 = Pac.make ~seed:1L () and c2 = Pac.make ~seed:2L () in
  let p = 0x2000_0000L in
  checkb "per-process keys" true
    (sign c1 ~key:Key.DA ~modifier:1L p <> sign c2 ~key:Key.DA ~modifier:1L p)

(* Signing writes the PAC field and nothing else: the signed pointer is
   its stripped form with its own field embedded. *)
let test_compute_pac_fits_field () =
  let c = ctx () in
  let layout = Pac.layout c in
  let s = sign c ~key:Key.DA ~modifier:99L 0x2000_0000L in
  checkb "pac fits width" true
    (Vaddr.embed_pac layout ~pac:(Vaddr.extract_pac layout s) (strip c s) = s
    && Int64.unsigned_compare (Vaddr.extract_pac layout s)
         (mask (Vaddr.pac_width layout)) <= 0)

(* The memo stops growing at its cap, and what it evicts never shows:
   every PAC, computed once and again after far more distinct PACs than
   the memo holds, equals the one a fresh context computes. Each
   (modifier, pointer) is signed under all five keys. *)
let test_memo_bounded () =
  let c = ctx () and fresh = ctx () in
  checkb "starts small" true (Pac.memo_entries c < Pac.memo_cap);
  let n = 4 * Pac.memo_cap in
  let op i = (Key.which_of_int (i mod 5), Int64.of_int (i / 5 mod 7)) in
  let ptr i = Int64.add 0x2000_0000L (Int64.of_int (16 * (i / 5))) in
  let signed =
    Array.init n (fun i ->
        let key, modifier = op i in
        sign c ~key ~modifier (ptr i))
  in
  checki "size at the cap" Pac.memo_cap (Pac.memo_entries c);
  Array.iteri
    (fun i s ->
      let key, modifier = op i in
      let again = sign c ~key ~modifier (ptr i) in
      if s <> again || s <> sign fresh ~key ~modifier (ptr i) then
        Alcotest.failf "PAC %d: %Lx, then %Lx; a fresh context gives %Lx" i s again
          (sign fresh ~key ~modifier (ptr i)))
    signed;
  checki "still at the cap" Pac.memo_cap (Pac.memo_entries c)

let prop_sign_auth =
  QCheck.Test.make ~name:"sign/auth roundtrip for canonical pointers" ~count:300
    QCheck.(pair (int_bound 0xFFFFFF) int64)
    (fun (off, modifier) ->
      let c = ctx () in
      let p = Int64.add 0x2000_0000L (Int64.of_int off) in
      let s = sign c ~key:Key.DA ~modifier p in
      match auth c ~key:Key.DA ~modifier s with Ok q -> q = p | Error _ -> false)

let prop_modifier_separation =
  QCheck.Test.make ~name:"distinct modifiers reject replays (w.h.p.)" ~count:300
    QCheck.(pair int64 int64)
    (fun (m1, m2) ->
      QCheck.assume (m1 <> m2);
      let c = ctx () in
      let p = 0x2000_0040L in
      let s = sign c ~key:Key.DA ~modifier:m1 p in
      (* 7-bit PAC: forgery chance 1/128 per pair; deterministic seeds keep
         this stable, and the chosen seed avoids collisions in this range *)
      match auth c ~key:Key.DA ~modifier:m2 s with
      | Error _ -> true
      | Ok _ ->
          (* accept rare PAC collisions: they must match the truncated PAC *)
          let pac m = Vaddr.extract_pac (Pac.layout c) (sign c ~key:Key.DA ~modifier:m p) in
          pac m1 = pac m2)

let test_brute_force_rate_tracks_width () =
  (* deterministic seeds: the 7-bit acceptance rate over 2048 guesses
     must sit near 2^-7, and the 15-bit rate must be far smaller *)
  let rate layout =
    let pac = Pac.make ~layout ~seed:99L () in
    let rng = Sm.create 4242L in
    let accepted = ref 0 in
    for _ = 1 to 2048 do
      let forged = Vaddr.embed_pac layout ~pac:(Sm.next64 rng) 0x2000_0040L in
      match auth pac ~key:Key.DA ~modifier:7L forged with
      | Ok _ -> incr accepted
      | Error _ -> ()
    done;
    float_of_int !accepted /. 2048.
  in
  let r7 = rate Vaddr.default and r15 = rate Vaddr.no_tbi in
  checkb "7-bit rate near 1/128" true (r7 > 0.001 && r7 < 0.03);
  checkb "15-bit rate << 7-bit rate" true (r15 < r7 /. 4.)

(* ------------------------- known answers -------------------------- *)

(* Ciphertexts and pointers pinned at the time the cipher was written,
   so a rewrite of the PA unit must reproduce them bit for bit. The
   inputs are drawn from fixed Splitmix seeds: 64 random
   (k0, w0, tweak, block) tuples, then every tuple over the edge values
   0, -1 and 0x8000_0000_0000_0000. *)

let qarma_kat =
  [|
    0x8ec4d61e478b9c73L; 0x25efbb8a14d6d6ecL; 0x452c25960b84c4c3L;
    0xf14e8defdb9c1d76L; 0xefd72d2a710e58e5L; 0xb4c4289ac97c8618L;
    0x5835a09cc9ce873aL; 0x7f55ae442df860b4L; 0x6f7a88832ae0f9e8L;
    0x132346a8d2b5b7f3L; 0x4ffd44c7be3ca372L; 0x2c03a946c5d17d4aL;
    0x4cd948e0a73d1aa7L; 0x4c427267fd1acfa4L; 0x83517f15042a1396L;
    0x73a4b38ddc7a979aL; 0x2ea6a06969e84450L; 0xb1ea10ed2f005d54L;
    0x16d453d6b7775f5aL; 0x58061d67a5503adbL; 0xd0ce07bacd92739aL;
    0x28a2f84bb111448aL; 0x4ac11c82e42226cdL; 0x3eaef87a46e8f8caL;
    0xd14013c3d57e4139L; 0xe5adad022379b10bL; 0xa1f2571be76a7e3bL;
    0xaabea68b7791aec0L; 0xb4a38e2113103c73L; 0xdb3d469f8d238195L;
    0x6040eb310ed120a5L; 0xf4236f96a3ada719L; 0xb1d208c2cef620c9L;
    0x87cc68250312555dL; 0xfdd4252486b7849dL; 0xb614d8de20bb1184L;
    0xbdbf9ba6d50f4237L; 0x4de3b256936306adL; 0x60ee8a27337e76f7L;
    0xda090d0785edcae8L; 0xec3215a6ace96a93L; 0x0e54fc4d6a7dc9b5L;
    0x07486bb9e7900bbbL; 0x2fac823eee0f60c8L; 0xeebd0fc4962f9648L;
    0x34283a9401d932b8L; 0x7c645407d9d18833L; 0x0c5cfb8e73a1b78cL;
    0xba81ad071bc3fd5aL; 0x2cb70ba451dc957dL; 0x865e26abd7bcee0cL;
    0xc6fa1c3c8f214b52L; 0x6e22453189327b39L; 0xc09a3e138cf4ab18L;
    0x4a136642582c0588L; 0xb6e47208ebeeb12eL; 0x62818ac3a7edf6cdL;
    0xc92c26acc042e6c7L; 0x84806c528e8e992bL; 0x70b3492abc38065eL;
    0xbc9efcaa397f2d5cL; 0xe2ed18b216da3f58L; 0x869376f6afb8368dL;
    0xd433f2a094c18b7dL; 0x87171fce36e46b93L; 0x85cd536558107f59L;
    0x9c05ec6ab8d6234dL; 0xc4e17270a2b35711L; 0x122ee515ed285a63L;
    0xa3b21476b1e75cd8L; 0x3ecc7174d8535d86L; 0xe3f8b55d48ffbb69L;
    0x95898142a60d5243L; 0xe02472ed976e7899L; 0x313e71143e48be11L;
    0xac457b71e214e2adL; 0xf3708ec3aaa244bfL; 0xbec2b1f5060e07e1L;
    0x5d9b75179c7121d7L; 0xc816cf7280935e62L; 0x705477a3fdd2c24bL;
    0xf9316ee60dfa8ce4L; 0xe530251b085ed6c8L; 0x72ceaa9566cbc5b3L;
    0x8622eb2e80318390L; 0x96b55727c8615991L; 0x03e44ef906e76e40L;
    0x4258aa076416d469L; 0x78676f73fd9e13aeL; 0xc67bad7beff59c65L;
    0xa86457ccb50c2043L; 0xff04df1854a4fb7cL; 0xf97188ac0bf03fd3L;
    0xd359cc711864e3f3L; 0xa4b70b96f30260caL; 0x329d3c6ecb8b078dL;
    0xcd84803c2acf28fdL; 0x5094c6c4a04506c5L; 0xc1dcf1e8827c26a6L;
    0xcb0c3bcdf227b1b4L; 0x6bc9a47283e94be8L; 0x58742897539d7593L;
    0xf634a8fd881c1b41L; 0x84d73e979f276f18L; 0x0f1d7f7ae0825b8eL;
    0x2d35a07cab89be2cL; 0xb659031504fa07baL; 0x329626dce9f6354aL;
    0x9adf45d226d02c0aL; 0x47fcc60c07627d58L; 0x4a51b63fa025d2a6L;
    0xde54b76d76ab42b0L; 0x820af6f479c2e621L; 0x9e960b4bfbe4a07cL;
    0x3b3a0a5e207d4b0fL; 0x8df6ac42400499d9L; 0x0503b8c4495e5190L;
    0xc433c95689cf9d30L; 0x5f523b72483ea06fL; 0x879bbc456559626aL;
    0x1c5971d241c2321bL; 0xd4e8ddf5fb44976aL; 0xa7bd6f30e8f2232dL;
    0x8458ae1a116ba3b1L; 0x6c06dcff60340a88L; 0x031845caa24210c8L;
    0x78e6921e9eff0725L; 0xe5f318f5d042b894L; 0xe498d02ec969f176L;
    0x069df6c32414c2cdL; 0x667a755f6df743ebL; 0x0f070b457e8d66ffL;
    0xa5be9f323793afcfL; 0x9f74d9995d7c6cfeL; 0x3d5d6f5b38fb7986L;
    0x045c03e6f882b0d8L; 0x96a6af443e2a2e7dL; 0x526f28e8fd6ee099L;
    0x827d1d52859a8c3eL; 0xd1bf70f6e54f217aL; 0x5598949a86f1bd14L;
    0x21f0dfdaf9949bd6L; 0x6d0b03337c0fd669L; 0x82fb192a1072c20fL;
    0x47ac529763e6c85cL;
  |]

let pac_kat_default =
  [
    (0x0000ba520246f9a0L, Ok 0x0000ba520246f9a0L,
     Error 0x0060ba520246f9a0L, 0x0000ba520246f9a0L);
    (0x111b48c410134ab0L, Ok 0x110048c410134ab0L,
     Error 0x117b48c410134ab0L, 0x110048c410134ab0L);
    (0x8bd2fe2420dcb38cL, Ok 0x8bfffe2420dcb38cL,
     Error 0x8bb2fe2420dcb38cL, 0x8bfffe2420dcb38cL);
    (0xa3e5c0e75ae8b6f2L, Ok 0xa3ffc0e75ae8b6f2L,
     Error 0xa385c0e75ae8b6f2L, 0xa3ffc0e75ae8b6f2L);
    (0x000c52e7b075e470L, Ok 0x000052e7b075e470L,
     Error 0x006c52e7b075e470L, 0x000052e7b075e470L);
    (0x555fb051c4c89690L, Ok 0x5500b051c4c89690L,
     Error 0x553fb051c4c89690L, 0x5500b051c4c89690L);
    (0x2cbc2d0e073d003cL, Ok 0x2cff2d0e073d003cL,
     Error 0x2cdc2d0e073d003cL, 0x2cff2d0e073d003cL);
    (0x50562d36bb52186eL, Ok 0x50002d36bb52186eL,
     Error 0x50362d36bb52186eL, 0x50002d36bb52186eL);
    (0x001ca08c934a0c70L, Ok 0x0000a08c934a0c70L,
     Error 0x007ca08c934a0c70L, 0x0000a08c934a0c70L);
    (0x991b9471dff65550L, Ok 0x99009471dff65550L,
     Error 0x997b9471dff65550L, 0x99009471dff65550L);
    (0x8588804c661d8481L, Ok 0x85ff804c661d8481L,
     Error 0x85e8804c661d8481L, 0x85ff804c661d8481L);
    (0x3d4f68771e130c04L, Ok 0x3d0068771e130c04L,
     Error 0x3d2f68771e130c04L, 0x3d0068771e130c04L);
    (0x0040858befd356a0L, Ok 0x0000858befd356a0L,
     Error 0x0020858befd356a0L, 0x0000858befd356a0L);
    (0xdd3011d71062ea00L, Ok 0xdd0011d71062ea00L,
     Error 0xdd5011d71062ea00L, 0xdd0011d71062ea00L);
    (0x9c974a4eb0ab36dbL, Ok 0x9cff4a4eb0ab36dbL,
     Error 0x9cf74a4eb0ab36dbL, 0x9cff4a4eb0ab36dbL);
    (0x9bcddf66dde0cdbaL, Ok 0x9bffdf66dde0cdbaL,
     Error 0x9baddf66dde0cdbaL, 0x9bffdf66dde0cdbaL);
  ]

let pac_kat_no_tbi =
  [
    (0x1f00ba520246f9a0L, Ok 0x0000ba520246f9a0L,
     Error 0xdf00ba520246f9a0L, 0x0000ba520246f9a0L);
    (0x251b48c410134ab0L, Ok 0x000048c410134ab0L,
     Error 0xe51b48c410134ab0L, 0x000048c410134ab0L);
    (0x8681fe2420dcb38cL, Ok 0xfffffe2420dcb38cL,
     Error 0x4681fe2420dcb38cL, 0xfffffe2420dcb38cL);
    (0x9f8cc0e75ae8b6f2L, Ok 0xffffc0e75ae8b6f2L,
     Error 0x5f8cc0e75ae8b6f2L, 0xffffc0e75ae8b6f2L);
    (0x3f0c52e7b075e470L, Ok 0x000052e7b075e470L,
     Error 0xff0c52e7b075e470L, 0x000052e7b075e470L);
    (0xb45fb051c4c89690L, Ok 0x0000b051c4c89690L,
     Error 0x745fb051c4c89690L, 0x0000b051c4c89690L);
    (0xb3ca2d0e073d003cL, Ok 0xffff2d0e073d003cL,
     Error 0x73ca2d0e073d003cL, 0xffff2d0e073d003cL);
    (0xcc562d36bb52186eL, Ok 0x00002d36bb52186eL,
     Error 0x0c562d36bb52186eL, 0x00002d36bb52186eL);
    (0xeb1ca08c934a0c70L, Ok 0x0000a08c934a0c70L,
     Error 0x2b1ca08c934a0c70L, 0x0000a08c934a0c70L);
    (0x5b1b9471dff65550L, Ok 0x00009471dff65550L,
     Error 0x9b1b9471dff65550L, 0x00009471dff65550L);
    (0xd0fc804c661d8481L, Ok 0xffff804c661d8481L,
     Error 0x10fc804c661d8481L, 0xffff804c661d8481L);
    (0x5a4f68771e130c04L, Ok 0x000068771e130c04L,
     Error 0x9a4f68771e130c04L, 0x000068771e130c04L);
    (0x1840858befd356a0L, Ok 0x0000858befd356a0L,
     Error 0xd840858befd356a0L, 0x0000858befd356a0L);
    (0xac3011d71062ea00L, Ok 0x000011d71062ea00L,
     Error 0x6c3011d71062ea00L, 0x000011d71062ea00L);
    (0x7fc04a4eb0ab36dbL, Ok 0xffff4a4eb0ab36dbL,
     Error 0xbfc04a4eb0ab36dbL, 0xffff4a4eb0ab36dbL);
    (0xa4a2df66dde0cdbaL, Ok 0xffffdf66dde0cdbaL,
     Error 0x64a2df66dde0cdbaL, 0xffffdf66dde0cdbaL);
  ]

let kat_inputs () =
  let rng = Sm.create 0x51_4B_41_54L in
  let random =
    List.init 64 (fun _ ->
        let k0 = Sm.next64 rng in
        let w0 = Sm.next64 rng in
        let tweak = Sm.next64 rng in
        let block = Sm.next64 rng in
        (k0, w0, tweak, block))
  in
  let edges = [ 0L; -1L; Int64.min_int ] in
  let each f = List.concat_map f edges in
  random
  @ each (fun k0 ->
        each (fun w0 -> each (fun tweak -> List.map (fun b -> (k0, w0, tweak, b)) edges)))

let test_qarma_known_answers () =
  let inputs = kat_inputs () in
  checki "vector count" (Array.length qarma_kat) (List.length inputs);
  List.iteri
    (fun i (k0, w0, tweak, block) ->
      let key = { Qarma.k0; w0 } in
      let name = Printf.sprintf "vector %d" i in
      check64 name qarma_kat.(i) (Qarma.encrypt ~key ~tweak block);
      check64 name block (Qarma.decrypt ~key ~tweak qarma_kat.(i)))
    inputs

(* Each row: sign, auth with the signing modifier, auth with that
   modifier plus one, strip of the signed pointer. The pointers cycle
   through canonical, tagged, upper-half and arbitrary bit patterns, and
   the keys through all five slots. *)
let check_pac_known_answers layout rows =
  let c = Pac.make ~layout ~seed:123L () in
  let rng = Sm.create 0x50_41_43L in
  let result = Alcotest.(result int64 int64) in
  List.iteri
    (fun i (signed, good, bad, stripped) ->
      let r = Sm.next64 rng and modifier = Sm.next64 rng in
      let low = Int64.logand r 0x0000_FFFF_FFFF_FFF0L in
      let p =
        match i mod 4 with
        | 0 -> low
        | 1 -> Vaddr.with_top_byte low (i * 17)
        | 2 -> Int64.logor r 0x0080_0000_0000_0000L
        | _ -> r
      in
      let key = Key.which_of_int (i mod 5) in
      let name = Printf.sprintf "row %d" i in
      let s = sign c ~key ~modifier p in
      check64 (name ^ " sign") signed s;
      Alcotest.check result (name ^ " auth") good (auth c ~key ~modifier s);
      Alcotest.check result (name ^ " auth, wrong modifier") bad
        (auth c ~key ~modifier:(Int64.succ modifier) s);
      check64 (name ^ " strip") stripped (strip c s))
    rows

let test_pac_known_answers () =
  check_pac_known_answers Vaddr.default pac_kat_default;
  check_pac_known_answers Vaddr.no_tbi pac_kat_no_tbi

let tests =
  [
    Alcotest.test_case "qarma: known answers" `Quick test_qarma_known_answers;
    Alcotest.test_case "pac: known answers" `Quick test_pac_known_answers;
    Alcotest.test_case "pac: brute-force rate" `Quick test_brute_force_rate_tracks_width;
    Alcotest.test_case "qarma: roundtrip" `Quick test_qarma_roundtrip;
    Alcotest.test_case "qarma: tweak sensitivity" `Quick test_qarma_tweak_sensitivity;
    Alcotest.test_case "qarma: key sensitivity" `Quick test_qarma_key_sensitivity;
    Alcotest.test_case "qarma: plaintext avalanche" `Quick test_qarma_plaintext_avalanche;
    Alcotest.test_case "qarma: deterministic" `Quick test_qarma_deterministic;
    Alcotest.test_case "vaddr: pac width" `Quick test_pac_width;
    Alcotest.test_case "vaddr: canonical low" `Quick test_canonical_low;
    Alcotest.test_case "vaddr: canonical clears pac" `Quick test_canonical_clears_pac;
    Alcotest.test_case "vaddr: kernel half" `Quick test_canonical_kernel_half;
    Alcotest.test_case "vaddr: embed/extract" `Quick test_embed_extract;
    Alcotest.test_case "vaddr: TBI keeps tag" `Quick test_embed_tbi_preserves_top_byte;
    Alcotest.test_case "vaddr: corrupt non-canonical" `Quick test_corrupt_not_canonical;
    Alcotest.test_case "vaddr: corrupt involution" `Quick test_corrupt_involution;
    Alcotest.test_case "vaddr: top byte" `Quick test_top_byte;
    Alcotest.test_case "key: slots distinct" `Quick test_key_slots_distinct;
    Alcotest.test_case "key: int mapping" `Quick test_key_of_int;
    Alcotest.test_case "pac: sign/auth roundtrip" `Quick test_sign_auth_roundtrip;
    Alcotest.test_case "pac: wrong modifier fails" `Quick test_auth_wrong_modifier_fails;
    Alcotest.test_case "pac: wrong key fails" `Quick test_auth_wrong_key_fails;
    Alcotest.test_case "pac: raw pointer fails" `Quick test_auth_raw_pointer_fails;
    Alcotest.test_case "pac: NULL unsigned" `Quick test_null_never_signed;
    Alcotest.test_case "pac: xpac strip" `Quick test_strip;
    Alcotest.test_case "pac: TBI tag independence" `Quick test_tbi_tag_does_not_affect_pac;
    Alcotest.test_case "pac: per-seed keys" `Quick test_different_seeds_different_pacs;
    Alcotest.test_case "pac: pac fits field" `Quick test_compute_pac_fits_field;
    Alcotest.test_case "pac: memo bounded" `Quick test_memo_bounded;
    QCheck_alcotest.to_alcotest prop_qarma_roundtrip;
    QCheck_alcotest.to_alcotest prop_qarma_injective;
    QCheck_alcotest.to_alcotest prop_qarma_word_sliced;
    QCheck_alcotest.to_alcotest prop_sign_auth;
    QCheck_alcotest.to_alcotest prop_modifier_separation;
  ]
