(** Product-form-of-the-inverse basis for the revised simplex.

    The basis inverse is kept as an eta file: a sequence of elementary
    Gauss-Jordan transformations, one per pivot, each stored as the sparse
    transformed entering column.  [ftran] solves [B x = a] by applying the
    etas oldest-first; [btran] solves [Bᵀ y = c] by applying their
    transposes newest-first.  Both are O(Σ nnz of the etas) — no dense
    [m × m] matrix is ever formed, which is what lets warm-started
    re-solves on the branch-and-bound tree cost a handful of sparse
    pivots instead of a fresh dense tableau.

    The file is rebuilt from the basis head ([reinvert]) when it grows past
    a threshold or on numerical trouble; rebuilding may permute which row
    each basic column is assigned to, so callers must recompute basic-value
    vectors afterwards. *)

type t

val create : Sparse.t -> head:int array -> t option
(** [create mat ~head] factorizes the basis whose column in row [i] is
    [head.(i)] (length [mat.m], entries in [0, mat.n)).  [head] is copied.
    [None] when the selected columns are (numerically) singular. *)

val head : t -> int array
(** The live row→column assignment; mutated by [update] and [reinvert].
    Do not modify externally. *)

val refactor_due : t -> bool
(** True when the eta file has grown past the rebuild threshold; callers
    should [reinvert] (and recompute basic values) before continuing. *)

val ftran : t -> float array -> unit
(** In-place solve of [B x = a]: the argument holds [a] (length [m]) on
    entry and [B⁻¹ a] on return. *)

val btran : t -> float array -> unit
(** In-place solve of [Bᵀ y = c]. *)

val update : t -> row:int -> col:int -> w:float array -> unit
(** Replace the basic column of [row] with [col].  [w] must be the
    ftran-transformed entering column [B⁻¹ A_col]; [w.(row)] is the pivot
    element and must be comfortably nonzero (the ratio test guarantees
    this).  [w] is not retained. *)

val reinvert : t -> bool
(** Rebuild the eta file from the current head.  Returns [false] (leaving
    the factorization unusable) if the head became singular — callers fall
    back to a cold start from the all-slack basis. *)
