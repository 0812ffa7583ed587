(** Small dense linear algebra for chunk-ratio allocation and the
    profiler's link fits: LU solves with partial pivoting and normal-equation
    least squares. *)

val solve : float array array -> float array -> float array option
(** [solve a b] solves [a x = b] by LU factorization with partial
    pivoting.  Returns [None] when [a] is (numerically) singular.  [a] and
    [b] are not modified. *)

val lstsq : float array array -> float array -> float array option
(** [lstsq a b] solves the least-squares problem [min ||a x - b||] via the
    normal equations; suitable for the small well-conditioned systems that
    arise in chunk allocation.  Returns [None] when the normal matrix is
    singular. *)

val residual : float array array -> float array -> float array -> float
(** [residual a x b] is [max_i |(a x - b).(i)|]. *)
