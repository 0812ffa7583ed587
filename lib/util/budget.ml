(* Deadline + cooperative cancellation token.  The deadline lives on the
   monotonic-clamped Clock.now axis so wall-clock steps cannot make a
   budget fire early or never; the token is one shared atomic so checks
   are cheap enough for inner solver loops. *)

type t = { dl : float; token : bool Atomic.t; mark : bool Atomic.t }

let unlimited =
  { dl = infinity; token = Atomic.make false; mark = Atomic.make false }

let create ?seconds () =
  let dl =
    match seconds with None -> infinity | Some s -> Clock.now () +. s
  in
  { dl; token = Atomic.make false; mark = Atomic.make false }

let sub ?seconds t =
  let dl =
    match seconds with
    | None -> t.dl
    | Some s -> Float.min t.dl (Clock.now () +. s)
  in
  (* Fresh mark: degradation is reported against the budget the caller
     holds, not smeared across siblings derived from the same parent. *)
  { dl; token = t.token; mark = Atomic.make false }

let detach t =
  (* Own token (seeded with the parent's current state) and own mark: the
     detached budget keeps the parent's deadline but can be cancelled — and
     reports degradation — independently. *)
  { dl = t.dl; token = Atomic.make (Atomic.get t.token); mark = Atomic.make false }

let cancel t = Atomic.set t.token true
let cancelled t = Atomic.get t.token
let expired t = Atomic.get t.token || Clock.now () >= t.dl
let has_deadline t = t.dl < infinity

let remaining t =
  if Atomic.get t.token then 0.0
  else if t.dl = infinity then infinity
  else Float.max 0.0 (t.dl -. Clock.now ())

let deadline t = t.dl
let mark_degraded t = Atomic.set t.mark true
let degraded t = Atomic.get t.mark
