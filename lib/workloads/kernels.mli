(** Parameterised MiniC kernel templates.

    Each template models one pointer-behaviour archetype found in the
    paper's benchmarks — pointer-chasing containers, function-pointer
    dispatch, numeric array code with few pointers, and so on. The suite
    modules ({!Spec2006}, {!Spec2017}, {!Nbench}, {!Pytorch}, {!Nginx})
    instantiate these with per-benchmark sizes so that each benchmark's
    instrumented-operation density (and therefore its Figure 9 overhead)
    reflects the original program's character.

    All templates return self-contained MiniC sources that print a final
    checksum and return 0, so the runner can assert that instrumentation
    never changes results. *)

val hash_table : buckets:int -> items:int -> lookups:int -> string
(** Chained string-keyed hash table storing [void*] payloads cast to and
    from typed entries: pointer- and cast-heavy (perlbench archetype). *)

val event_queue : events:int -> string
(** Sorted intrusive linked-list scheduler: insert/pop pointer chasing
    (omnetpp archetype). *)

val binary_tree : nodes:int -> searches:int -> string
(** Unbalanced binary search tree build + lookups (xalancbmk/dealII
    archetype). *)

val network_simplex : nodes:int -> iters:int -> string
(** Arc/node graph relabelling with pointer fields (mcf archetype). *)

val stencil : n:int -> iters:int -> string
(** Double-precision 1-D stencil over arrays; no pointers in the hot loop
    (lbm/nab archetype). *)

val dispatch_table : rounds:int -> string
(** Function-pointer opcode dispatch loop (sjeng/deepsjeng archetype). *)

val sparse_matrix : rows:int -> iters:int -> string
(** Sparse matrix-vector product with per-row pointers (soplex). *)

val scene_render : objects:int -> rays:int -> string
(** Shape objects with virtual-ish intersect function pointers (povray). *)

val compress : n:int -> rounds:int -> string
(** Byte-array transform with small tables (bzip2/xz archetype). *)

val quantum_gates : qubits:int -> rounds:int -> string
(** Bit-twiddling register array (libquantum archetype). *)

val dp_align : m:int -> n:int -> string
(** 2-D dynamic-programming alignment over long arrays (hmmer). *)

val tensor_mlp : features:int -> hidden:int -> iters:int -> string
(** Tensor structs with data pointers + layer dispatch: the CPython
    PyTorch inference loop archetype. *)

val tensor_stencil : n:int -> iters:int -> string
(** A stencil driven through tensor objects and per-tile kernel helper
    calls — the pointer profile of a CPython-interpreted PyTorch
    operator loop. *)

val http_server : requests:int -> string
(** Request parsing, header buffers, handler function-pointer dispatch:
    the NGINX archetype. *)

val su3_lattice : sites:int -> sweeps:int -> string
(** Lattice-QCD style 3x3 complex matrix products (milc). *)

val force_field : atoms:int -> steps:int -> string
(** Pairwise short-range force computation over coordinate arrays
    (namd/nab). *)

val mcts : playouts:int -> string
(** Monte-Carlo tree search with child/parent pointer nodes and UCB
    selection (leela). *)

val grid_pathfind : dim:int -> searches:int -> string
(** A*-style grid search with parent-pointer node objects (astar). *)

val board_scan : dim:int -> plays:int -> string
(** Go-engine board scanning: liberties + pattern hashes (gobmk). *)

val motion_estimate : frame:int -> blocks:int -> string
(** H.264-style sum-of-absolute-differences search (h264ref). *)

val huffman : symbols:int -> rounds:int -> string
(** Huffman tree build + encode (nbench Huffman). *)

val neural_net : neurons:int -> epochs:int -> string
(** Small back-propagation network over double arrays (nbench NN). *)

val lu_decomp : n:int -> rounds:int -> string
(** LU decomposition over a dense matrix (nbench LU). *)

val fourier : terms:int -> string
(** Fourier coefficients via numerical integration (nbench Fourier). *)

val bitfield : n:int -> rounds:int -> string
(** Bit-map manipulation (nbench Bitfield). *)

val assignment : n:int -> rounds:int -> string
(** Assignment-problem cost-matrix scan (nbench Assignment). *)

val idea_cipher : blocks:int -> string
(** IDEA-like cipher rounds over integer arrays (nbench IDEA). *)

val numeric_sort : n:int -> rounds:int -> string
(** Heap-sort of long arrays (nbench Numeric sort). *)

val string_sort : n:int -> rounds:int -> string
(** Pointer-array string sort — pointer-heavy (nbench String sort). *)

val fp_emulation : n:int -> rounds:int -> string
(** Software floating-point-ish fixed-point loop (nbench FP emulation). *)
