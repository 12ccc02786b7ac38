(** Dense real matrices, row-major, backed by a flat [float array].

    The record fields are exposed so that performance-critical code can
    index [data] directly ([data.(i * cols + j)] is element [(i, j)]).
    All functions check dimensions with assertions. *)

type t = private { rows : int; cols : int; data : float array }

(** {1 Construction} *)

val create : int -> int -> t
(** [create r c] is a fresh zero matrix. *)

val init : int -> int -> (int -> int -> float) -> t
(** [init r c f] has element [(i, j)] equal to [f i j]. *)

val make : int -> int -> float -> t

val identity : int -> t

val diag : Vec.t -> t
(** Square matrix with the given diagonal. *)

val scalar : int -> float -> t
(** [scalar n c] is [c] times the [n]-identity. *)

val of_arrays : float array array -> t
(** Rows given as arrays; all rows must have equal length. *)

val of_rows : Vec.t list -> t

val copy : t -> t

val unsafe_of_flat : rows:int -> cols:int -> float array -> t
(** Wrap an existing flat row-major array without copying.  The array
    length must be [rows * cols]; the caller must not alias it in ways
    that violate matrix invariants. *)

(** {1 Size and access} *)

val dim : t -> int * int
(** [(rows, cols)]. *)

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val update : t -> int -> int -> (float -> float) -> unit

val row : t -> int -> Vec.t
(** Fresh copy of a row. *)

val col : t -> int -> Vec.t
(** Fresh copy of a column. *)

val set_row : t -> int -> Vec.t -> unit

val set_col : t -> int -> Vec.t -> unit

val diagonal : t -> Vec.t
(** Fresh copy of the main diagonal (square not required; length is
    [min rows cols]). *)

val submatrix : t -> row0:int -> col0:int -> rows:int -> cols:int -> t

val submatrix_into : t -> row0:int -> col0:int -> dst:t -> unit
(** Copy the [dim dst]-shaped block of [a] at [(row0, col0)] into
    [dst], overwriting it — the allocation-free {!submatrix}. *)

val select_cols : t -> int array -> t
(** [select_cols a idx] is the matrix whose [j]-th column is column
    [idx.(j)] of [a]. *)

val transpose : t -> t

(** {1 Arithmetic} *)

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val add_inplace : t -> t -> unit
(** [add_inplace a b] sets [a <- a + b]. *)

val scale_inplace : t -> float -> unit

val add_scaled_inplace : t -> float -> t -> unit
(** [add_scaled_inplace a c b] sets [a <- a + c*b]. *)

val add_diag_inplace : t -> float -> unit
(** Add a constant to the main diagonal (ridge/jitter). *)

(** {2 GEMM}

    The blocked kernels fan output panels across the shared
    {!Cbmf_parallel.Pool.default} pool when it has more than one
    domain, the call is not already inside a pool task, and the
    estimated work clears {!Cbmf_parallel.Tune.gemm_fanout}.  The
    parallel paths share their per-element accumulation order, unroll
    grouping and zero-skip expressions with the sequential kernels, so
    results are bit-identical at any [CBMF_DOMAINS]; a 1-domain pool
    pays nothing (no packing, no gate traffic).  The [_into] variants
    write into a caller-owned destination (fully overwriting it) so
    hot loops can reuse arena buffers instead of allocating. *)

val matmul : t -> t -> t
(** [matmul a b] is [a * b] (cache-blocked, k-unrolled kernel; the
    parallel path packs [b] into tile-contiguous panels once per
    call). *)

val matmul_into : t -> t -> dst:t -> unit

val matmul_nt : t -> t -> t
(** [matmul_nt a b] is [a * bᵀ] (2×2 register-blocked dot kernel;
    parallel fan-out is over row pairs so the pairing alignment is
    domain-count-invariant). *)

val matmul_nt_into : t -> t -> dst:t -> unit

val matmul_tn : t -> t -> t
(** [matmul_tn a b] is [aᵀ * b] (2×-unrolled axpy kernel; the parallel
    path packs each task's column slab of [b] into per-worker arena
    scratch). *)

val matmul_naive : t -> t -> t
(** Reference triple-loop [a * b]: oracle for the blocked kernels. *)

val matmul_nt_naive : t -> t -> t
(** Reference row-dot [a * bᵀ] (see {!matmul_naive}). *)

val syrk_tn : t -> t
(** [syrk_tn a] is the symmetric rank-k update [aᵀ a], computing only
    the upper triangle and mirroring — half the work of {!matmul_tn}. *)

val syrk_nt : t -> t
(** [syrk_nt a] is [a aᵀ], upper triangle only then mirrored. *)

val matmul_nt_weighted : t -> Vec.t -> t -> t
(** [matmul_nt_weighted a w b] is [a · diag(w) · bᵀ] with the weighting
    fused into the kernel (no scaled copy of [a] or [b] is formed).
    When [a] and [b] are physically the same matrix only the upper
    triangle is computed and mirrored.  The staged row lives in
    per-worker arena scratch, so repeated calls allocate nothing. *)

val matmul_nt_weighted_into : t -> Vec.t -> t -> dst:t -> unit

val mat_vec : t -> Vec.t -> Vec.t
(** [mat_vec a x] is [a x]. *)

val mat_tvec : t -> Vec.t -> Vec.t
(** [mat_tvec a x] is [aᵀ x]. *)

val mat_tvec_into : t -> Vec.t -> Vec.t -> unit
(** [mat_tvec_into a x y] overwrites [y] (length [a.cols]) with [aᵀ x],
    bit-identical to {!mat_tvec} (same accumulation order) without
    allocating. *)

val gram : t -> t
(** [gram a] is [aᵀ a] (symmetric). *)

val outer : Vec.t -> Vec.t -> t
(** [outer x y] is [x yᵀ]. *)

val add_outer_inplace : t -> float -> Vec.t -> Vec.t -> unit
(** [add_outer_inplace a c x y] sets [a <- a + c · x yᵀ]. *)

val quadratic_form : t -> Vec.t -> float
(** [quadratic_form a x] is [xᵀ a x] (square [a]). *)

(** {1 Reductions and predicates} *)

val trace : t -> float

val frobenius : t -> float

val norm_inf : t -> float
(** Max absolute row sum. *)

val max_abs : t -> float
(** Largest absolute entry. *)

val is_square : t -> bool

val is_symmetric : ?tol:float -> t -> bool

val symmetrize_inplace : t -> unit
(** Replace [a] with [(a + aᵀ)/2] (square [a]). *)

val approx_equal : ?tol:float -> t -> t -> bool

(** {1 Maps} *)

val map : (float -> float) -> t -> t

val mapi : (int -> int -> float -> float) -> t -> t

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
