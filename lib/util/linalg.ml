let mat_vec a x =
  Array.map
    (fun row ->
      let acc = ref 0.0 in
      Array.iteri (fun j v -> acc := !acc +. (v *. x.(j))) row;
      !acc)
    a

let residual a x b =
  let ax = mat_vec a x in
  let m = ref 0.0 in
  Array.iteri (fun i v -> m := Float.max !m (Float.abs (v -. b.(i)))) ax;
  !m

(* LU factorization with partial pivoting, stored packed: [lu.(i).(j)] holds
   U on and above the diagonal and the unit-lower-triangular multipliers of L
   strictly below it.  [perm.(i)] is the original row index that ended up in
   position [i]. *)
type lu = { lu : float array array; perm : int array }

let lu_factor a =
  let n = Array.length a in
  if n = 0 then Some { lu = [||]; perm = [||] }
  else begin
    assert (Array.for_all (fun row -> Array.length row = n) a);
    let m = Array.map Array.copy a in
    let perm = Array.init n (fun i -> i) in
    let singular = ref false in
    for col = 0 to n - 1 do
      if not !singular then begin
        let pivot = ref col in
        for r = col + 1 to n - 1 do
          if Float.abs m.(r).(col) > Float.abs m.(!pivot).(col) then pivot := r
        done;
        if Float.abs m.(!pivot).(col) < 1e-12 then singular := true
        else begin
          if !pivot <> col then begin
            let tmp = m.(col) in
            m.(col) <- m.(!pivot);
            m.(!pivot) <- tmp;
            let t = perm.(col) in
            perm.(col) <- perm.(!pivot);
            perm.(!pivot) <- t
          end;
          for r = col + 1 to n - 1 do
            let f = m.(r).(col) /. m.(col).(col) in
            m.(r).(col) <- f;
            if f <> 0.0 then
              for c = col + 1 to n - 1 do
                m.(r).(c) <- m.(r).(c) -. (f *. m.(col).(c))
              done
          done
        end
      end
    done;
    if !singular then None else Some { lu = m; perm }
  end

let lu_solve { lu; perm } b =
  let n = Array.length lu in
  let x = Array.init n (fun i -> b.(perm.(i))) in
  (* Forward substitution with unit L. *)
  for r = 1 to n - 1 do
    let acc = ref x.(r) in
    for c = 0 to r - 1 do
      acc := !acc -. (lu.(r).(c) *. x.(c))
    done;
    x.(r) <- !acc
  done;
  (* Back substitution with U. *)
  for r = n - 1 downto 0 do
    let acc = ref x.(r) in
    for c = r + 1 to n - 1 do
      acc := !acc -. (lu.(r).(c) *. x.(c))
    done;
    x.(r) <- !acc /. lu.(r).(r)
  done;
  x

let solve a b =
  let n = Array.length a in
  assert (n = Array.length b);
  match lu_factor a with
  | None -> None
  | Some f -> Some (lu_solve f b)

let transpose a =
  let rows = Array.length a in
  if rows = 0 then [||]
  else
    let cols = Array.length a.(0) in
    Array.init cols (fun j -> Array.init rows (fun i -> a.(i).(j)))

let lstsq a b =
  let at = transpose a in
  let n = Array.length at in
  let ata = Array.init n (fun i ->
      Array.init n (fun j ->
          let acc = ref 0.0 in
          Array.iteri (fun k v -> acc := !acc +. (v *. at.(j).(k))) at.(i);
          !acc))
  in
  let atb = Array.map (fun row ->
      let acc = ref 0.0 in
      Array.iteri (fun k v -> acc := !acc +. (v *. b.(k))) row;
      !acc)
      at
  in
  solve ata atb
