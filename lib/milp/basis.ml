(* One Gauss-Jordan elementary transformation: pivoting the (already
   ftran-transformed) column [w] on row [er] multiplies the inverse by a
   matrix that is the identity except in column [er].  We store the pivot
   value and the off-pivot nonzeros of [w]. *)
type eta = { er : int; piv : float; ei : int array; ev : float array }

type t = {
  mat : Sparse.t;
  m : int;
  hd : int array;
  mutable etas : eta array;
  mutable neta : int;
  mutable base_neta : int;
      (* eta count right after the last refactorization: a reinvert itself
         emits one eta per basis column, so staleness must be measured in
         etas added *since* then, not in the absolute file length *)
}

let refactor_threshold = 100
let pivot_tol = 1e-9
let drop_tol = 1e-12

let head t = t.hd
let refactor_due t = t.neta - t.base_neta > refactor_threshold

let push_eta t e =
  if t.neta = Array.length t.etas then begin
    let bigger = Array.make (max 16 (2 * t.neta)) e in
    Array.blit t.etas 0 bigger 0 t.neta;
    t.etas <- bigger
  end;
  t.etas.(t.neta) <- e;
  t.neta <- t.neta + 1

let apply_ftran e x =
  let xr = x.(e.er) /. e.piv in
  if xr <> 0.0 then begin
    for k = 0 to Array.length e.ei - 1 do
      let i = e.ei.(k) in
      x.(i) <- x.(i) -. (e.ev.(k) *. xr)
    done;
    x.(e.er) <- xr
  end
  else x.(e.er) <- 0.0

let apply_btran e y =
  let acc = ref y.(e.er) in
  for k = 0 to Array.length e.ei - 1 do
    acc := !acc -. (e.ev.(k) *. y.(e.ei.(k)))
  done;
  y.(e.er) <- !acc /. e.piv

let ftran t x =
  for k = 0 to t.neta - 1 do
    apply_ftran t.etas.(k) x
  done

let btran t y =
  for k = t.neta - 1 downto 0 do
    apply_btran t.etas.(k) y
  done

let eta_of_column ~row w =
  let nz = ref 0 in
  Array.iteri
    (fun i v -> if i <> row && Float.abs v > drop_tol then incr nz)
    w;
  let ei = Array.make !nz 0 and ev = Array.make !nz 0.0 in
  let k = ref 0 in
  Array.iteri
    (fun i v ->
      if i <> row && Float.abs v > drop_tol then begin
        ei.(!k) <- i;
        ev.(!k) <- v;
        incr k
      end)
    w;
  { er = row; piv = w.(row); ei; ev }

let update t ~row ~col ~w =
  push_eta t (eta_of_column ~row w);
  t.hd.(row) <- col

(* Rebuild the eta file by factorizing the head columns one at a time:
   scatter, transform through the etas built so far, then pivot on the
   largest-magnitude entry among still-unassigned rows.  Row assignment may
   permute relative to the old head.

   Processing order decides the fill (and therefore the cost): LP bases
   are dominated by slack columns and near-triangular structural blocks,
   so we peel column singletons first — a column with exactly one nonzero
   over still-unassigned rows pivots there without touching any other
   unassigned row — and order the remaining "bump" by ascending nonzero
   count (the classic triangularity crash).  Head order used to make this
   O(m²·fill) on epoch-model bases; the crash makes a refactorization
   cost about as much as one dense column scan per basis column. *)
let reinvert_inner t =
  let m = t.m in
  t.neta <- 0;
  if m = 0 then true
  else begin
    (* Structural peel over basis positions (numeric pivoting below may
       still pick different rows; the order is a heuristic, not a
       commitment). *)
    let count = Array.make m 0 in
    let row_assigned = Array.make m false in
    let rows_of = Array.make m [] in
    for k = 0 to m - 1 do
      Sparse.col_iter t.mat t.hd.(k) (fun i _ ->
          count.(k) <- count.(k) + 1;
          rows_of.(i) <- k :: rows_of.(i))
    done;
    let order = Array.make m (-1) in
    let taken = Array.make m false in
    let next = ref 0 in
    let queue = Queue.create () in
    for k = 0 to m - 1 do
      if count.(k) = 1 then Queue.add k queue
    done;
    while not (Queue.is_empty queue) do
      let k = Queue.pop queue in
      if (not taken.(k)) && count.(k) = 1 then begin
        taken.(k) <- true;
        order.(!next) <- k;
        incr next;
        Sparse.col_iter t.mat t.hd.(k) (fun i _ ->
            if not row_assigned.(i) then begin
              row_assigned.(i) <- true;
              List.iter
                (fun k' ->
                  if not taken.(k') then begin
                    count.(k') <- count.(k') - 1;
                    if count.(k') = 1 then Queue.add k' queue
                  end)
                rows_of.(i)
            end)
      end
    done;
    let bump = ref [] in
    for k = m - 1 downto 0 do
      if not taken.(k) then bump := k :: !bump
    done;
    let bump = Array.of_list !bump in
    Array.stable_sort
      (fun a b ->
        match compare count.(a) count.(b) with 0 -> compare a b | c -> c)
      bump;
    Array.iter
      (fun k ->
        order.(!next) <- k;
        incr next)
      bump;
    let assigned = Array.make m false in
    let new_head = Array.make m (-1) in
    (* Sparse working column: [w] holds values, [touched]/[in_w] track the
       nonzero pattern so scatter, pivot search, eta extraction and reset
       all cost O(nonzeros), not O(m).  The ftran stays a pass over the
       whole eta file, but each non-interacting eta costs one load. *)
    let w = Array.make m 0.0 in
    let in_w = Array.make m false in
    let touched = Array.make m 0 in
    let ntouch = ref 0 in
    let touch i =
      if not in_w.(i) then begin
        in_w.(i) <- true;
        touched.(!ntouch) <- i;
        incr ntouch
      end
    in
    let ok = ref true in
    let k = ref 0 in
    while !ok && !k < m do
      let col = t.hd.(order.(!k)) in
      ntouch := 0;
      Sparse.col_iter t.mat col (fun i v ->
          w.(i) <- v;
          touch i);
      for e = 0 to t.neta - 1 do
        let eta = t.etas.(e) in
        let xr = w.(eta.er) /. eta.piv in
        if xr <> 0.0 then begin
          for j = 0 to Array.length eta.ei - 1 do
            let i = eta.ei.(j) in
            touch i;
            w.(i) <- w.(i) -. (eta.ev.(j) *. xr)
          done;
          w.(eta.er) <- xr
        end
      done;
      let r = ref (-1) and best = ref pivot_tol in
      for p = 0 to !ntouch - 1 do
        let i = touched.(p) in
        if (not assigned.(i)) && Float.abs w.(i) > !best then begin
          r := i;
          best := Float.abs w.(i)
        end
      done;
      if !r < 0 then ok := false
      else begin
        let row = !r in
        let nz = ref 0 in
        for p = 0 to !ntouch - 1 do
          let i = touched.(p) in
          if i <> row && Float.abs w.(i) > drop_tol then incr nz
        done;
        let ei = Array.make !nz 0 and ev = Array.make !nz 0.0 in
        let q = ref 0 in
        for p = 0 to !ntouch - 1 do
          let i = touched.(p) in
          if i <> row && Float.abs w.(i) > drop_tol then begin
            ei.(!q) <- i;
            ev.(!q) <- w.(i);
            incr q
          end
        done;
        push_eta t { er = row; piv = w.(row); ei; ev };
        assigned.(row) <- true;
        new_head.(row) <- col;
        incr k
      end;
      for p = 0 to !ntouch - 1 do
        let i = touched.(p) in
        w.(i) <- 0.0;
        in_w.(i) <- false
      done
    done;
    if !ok then Array.blit new_head 0 t.hd 0 m;
    !ok
  end

let reinvert t =
  let t0 = Syccl_util.Clock.now () in
  let r = reinvert_inner t in
  if r then t.base_neta <- t.neta;
  Syccl_util.Counters.addf "lp.reinvert_s" (Syccl_util.Clock.elapsed t0);
  Syccl_util.Counters.bump "lp.reinverts";
  r

let create mat ~head =
  if Array.length head <> mat.Sparse.m then
    invalid_arg "Basis.create: head length mismatch";
  let t =
    {
      mat;
      m = mat.Sparse.m;
      hd = Array.copy head;
      etas = [||];
      neta = 0;
      base_neta = 0;
    }
  in
  if reinvert t then Some t else None
