(* A deadline and a degradation mark.  The deadline lives on the
   monotonic-clamped Clock.now axis so wall-clock steps cannot make a
   budget fire early or never. *)

type t = { dl : float; mark : bool Atomic.t }

let unlimited = { dl = infinity; mark = Atomic.make false }

let create ?seconds () =
  let dl =
    match seconds with None -> infinity | Some s -> Clock.now () +. s
  in
  { dl; mark = Atomic.make false }

let sub ?seconds t =
  let dl =
    match seconds with
    | None -> t.dl
    | Some s -> Float.min t.dl (Clock.now () +. s)
  in
  (* Fresh mark: degradation is reported against the budget the caller
     holds, not smeared across siblings derived from the same parent. *)
  { dl; mark = Atomic.make false }

let expired t = Clock.now () >= t.dl
let has_deadline t = t.dl < infinity

let remaining t =
  if t.dl = infinity then infinity else Float.max 0.0 (t.dl -. Clock.now ())

let deadline t = t.dl
let mark_degraded t = Atomic.set t.mark true
let degraded t = Atomic.get t.mark
