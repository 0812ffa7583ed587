(** Deadlines for anytime synthesis.

    A budget is an absolute monotonic deadline ({!Clock.now}-based) plus a
    degradation mark.  Synthesis stages receive one budget and check it
    cooperatively: {!expired} is one clock read.  Budgets never interrupt
    anything by themselves — a stage that observes an expired budget is
    expected to return its best incumbent (or a cheap fallback), not to
    raise.

    Derived budgets ({!sub}) never outlive their parent's deadline and
    carry their own mark, so one element of a sweep, or one sub-solve, can
    report degradation independently of its siblings. *)

type t

val unlimited : t
(** No deadline.  A shared constant: do not {!mark_degraded} it (the mark
    would leak into every user of the constant); {!sub} it, or create a
    real budget, when degradation must be reported. *)

val create : ?seconds:float -> unit -> t
(** [create ~seconds ()] is a fresh budget expiring [seconds] from now (no
    deadline when omitted).  [seconds <= 0] yields an already-expired
    budget. *)

val sub : ?seconds:float -> t -> t
(** [sub ~seconds t] is a child budget: its deadline is the earlier of
    [t]'s and [seconds] from now ([t]'s own without [seconds]), and its
    degradation mark starts unset. *)

val expired : t -> bool
(** The deadline has passed. *)

val has_deadline : t -> bool
(** Whether a finite deadline is set ({!unlimited} and deadline-less
    {!create} say no). *)

val remaining : t -> float
(** Seconds until the deadline: [infinity] without one, [0.] once
    expired.  Never negative. *)

val deadline : t -> float
(** Absolute deadline on the {!Clock.now} axis ([infinity] if none). *)

val mark_degraded : t -> unit
(** Record that some stage holding this budget degraded its result to meet
    the deadline (skipped a refinement, truncated an enumeration).  Marks
    are per-budget: {!sub} children start unmarked and their marks do not
    propagate to the parent or to siblings — stages that should contribute
    to a caller's degradation report must be handed the caller's own
    budget. *)

val degraded : t -> bool
(** Whether {!mark_degraded} was called on exactly this budget. *)
