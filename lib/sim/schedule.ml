type xfer = { chunk : int; src : int; dst : int; dim : int; prio : int }

type chunk_meta = {
  size : float;
  mode : [ `Gather | `Reduce ];
  initial : int list;
  wanted : int list;
  tag : int;
}

type t = { chunks : chunk_meta array; xfers : xfer list }

let empty = { chunks = [||]; xfers = [] }

let union schedules =
  let chunks = Array.concat (List.map (fun s -> s.chunks) schedules) in
  let _, xfers =
    List.fold_left
      (fun (offset, acc) s ->
        let shifted =
          List.map (fun x -> { x with chunk = x.chunk + offset }) s.xfers
        in
        (offset + Array.length s.chunks, List.rev_append shifted acc))
      (0, []) schedules
  in
  { chunks; xfers = List.rev xfers }

let map_gpus t f =
  {
    chunks =
      Array.map
        (fun c ->
          { c with initial = List.map f c.initial; wanted = List.map f c.wanted })
        t.chunks;
    xfers = List.map (fun x -> { x with src = f x.src; dst = f x.dst }) t.xfers;
  }

let reverse t =
  let flip c =
    let mode = match c.mode with `Gather -> `Reduce | `Reduce -> `Gather in
    { c with mode; initial = c.wanted; wanted = c.initial }
  in
  (* Time reversal: what finished last must start first, so priorities are
     mirrored (making [reverse] a cost involution under the simulator).
     The mirror pivot is [minp + maxp] of the actual priorities — mirroring
     around it maps the range onto itself, so [reverse (reverse t) = t]
     exactly, including under negative priorities (the old [max 0 _] seed
     shifted them by [-minp] on the way back: cost-equivalent, since the
     simulator only compares priorities, but not an involution). *)
  let pivot =
    match t.xfers with
    | [] -> 0
    | x0 :: rest ->
        let minp, maxp =
          List.fold_left
            (fun (lo, hi) x -> (min lo x.prio, max hi x.prio))
            (x0.prio, x0.prio) rest
        in
        minp + maxp
  in
  {
    chunks = Array.map flip t.chunks;
    xfers =
      List.rev_map
        (fun x -> { x with src = x.dst; dst = x.src; prio = pivot - x.prio })
        t.xfers;
  }

(* Data-flow mirror for copy collectives: [reverse] with every chunk kept
   in copy ([`Gather]) mode.  [reverse] turns a scatter tree into a reduce
   tree — combining semantics — but a Gather demand wants the same
   transfers with plain concatenation, so the mode flip is undone. *)
let transpose t =
  let r = reverse t in
  { r with chunks = Array.map (fun c -> { c with mode = `Gather }) r.chunks }

let drop_redundant t =
  let xs = Array.of_list t.xfers in
  let keep = Array.make (Array.length xs) true in
  (* Each chunk's transfer indices, in priority order. *)
  let by_chunk = Array.make (Array.length t.chunks) [] in
  List.iter
    (fun i -> by_chunk.(xs.(i).chunk) <- i :: by_chunk.(xs.(i).chunk))
    (List.rev
       (List.stable_sort
          (fun i j -> compare xs.(i).prio xs.(j).prio)
          (List.init (Array.length xs) Fun.id)));
  Array.iteri
    (fun c idx ->
      let meta = t.chunks.(c) in
      if meta.mode = `Gather then begin
        (* Fire transfers in causal order, earliest priority first once
           their source holds the chunk; one into a holder is a
           re-delivery. *)
        let holds = Hashtbl.create 16 in
        List.iter (fun v -> Hashtbl.replace holds v ()) meta.initial;
        let rec fire pending =
          let fired = ref false in
          let rest =
            List.fold_left
              (fun rest i ->
                let x = xs.(i) in
                if not (Hashtbl.mem holds x.src) then i :: rest
                else begin
                  fired := true;
                  if Hashtbl.mem holds x.dst then keep.(i) <- false
                  else Hashtbl.replace holds x.dst ();
                  rest
                end)
              [] pending
          in
          if !fired then fire (List.rev rest)
        in
        fire idx;
        (* Then peel relay leaves: a transfer into a GPU that does not want
           the chunk and forwards it nowhere. *)
        let sends = Hashtbl.create 16 in
        let count v = Option.value ~default:0 (Hashtbl.find_opt sends v) in
        List.iter
          (fun i -> if keep.(i) then Hashtbl.replace sends xs.(i).src (count xs.(i).src + 1))
          idx;
        let rec peel () =
          let peeled = ref false in
          List.iter
            (fun i ->
              let x = xs.(i) in
              if keep.(i) && count x.dst = 0 && not (List.mem x.dst meta.wanted)
              then begin
                keep.(i) <- false;
                Hashtbl.replace sends x.src (count x.src - 1);
                peeled := true
              end)
            idx;
          if !peeled then peel ()
        in
        peel ()
      end)
    by_chunk;
  { t with xfers = List.filteri (fun i _ -> keep.(i)) t.xfers }

let scale t f =
  assert (f > 0.0);
  { t with chunks = Array.map (fun c -> { c with size = c.size *. f }) t.chunks }

let num_xfers t = List.length t.xfers

module Json = Syccl_util.Json

(* Bump whenever the JSON layout (or the semantics the simulator assigns to
   it) changes incompatibly: persisted schedules — the on-disk registry in
   particular — are invalidated by version, not by parse failure. *)
let schema_version = 1

let to_json t =
  let ints l = Json.List (List.map (fun i -> Json.Num (float_of_int i)) l) in
  Json.Obj
    [
      ("schema_version", Json.Num (float_of_int schema_version));
      ( "chunks",
        Json.List
          (Array.to_list
             (Array.map
                (fun c ->
                  Json.Obj
                    [
                      ("size", Json.Num c.size);
                      ( "mode",
                        Json.Str
                          (match c.mode with `Gather -> "gather" | `Reduce -> "reduce")
                      );
                      ("initial", ints c.initial);
                      ("wanted", ints c.wanted);
                      ("tag", Json.Num (float_of_int c.tag));
                    ])
                t.chunks)) );
      ( "xfers",
        Json.List
          (List.map
             (fun x ->
               Json.List
                 (List.map
                    (fun i -> Json.Num (float_of_int i))
                    [ x.chunk; x.src; x.dst; x.dim; x.prio ]))
             t.xfers) );
    ]

let of_json j =
  (* A missing or mismatched version is rejected up front so a registry
     entry written by an incompatible build surfaces as a clear parse error
     (⇒ a counted registry miss), never as a silently-misread schedule. *)
  let version = Json.to_int (Json.member "schema_version" j) in
  if version <> schema_version then
    raise
      (Json.Parse_error
         (Printf.sprintf
            "schedule schema_version mismatch: got %d, this build reads %d"
            version schema_version));
  let ints v = List.map Json.to_int (Json.to_list v) in
  let chunks =
    Array.of_list
      (List.map
         (fun c ->
           {
             size = Json.to_float (Json.member "size" c);
             mode =
               (match Json.to_str (Json.member "mode" c) with
               | "gather" -> `Gather
               | "reduce" -> `Reduce
               | s -> raise (Json.Parse_error ("unknown chunk mode " ^ s)));
             initial = ints (Json.member "initial" c);
             wanted = ints (Json.member "wanted" c);
             tag = Json.to_int (Json.member "tag" c);
           })
         (Json.to_list (Json.member "chunks" j)))
  in
  let xfers =
    List.map
      (fun x ->
        match ints x with
        | [ chunk; src; dst; dim; prio ] -> { chunk; src; dst; dim; prio }
        | _ -> raise (Json.Parse_error "transfer must have five fields"))
      (Json.to_list (Json.member "xfers" j))
  in
  { chunks; xfers }

let pp fmt t =
  Format.fprintf fmt "@[<v>schedule: %d chunks, %d xfers@," (Array.length t.chunks)
    (num_xfers t);
  List.iteri
    (fun i x ->
      if i < 64 then
        Format.fprintf fmt "  c%d: %d -> %d (dim %d)@," x.chunk x.src x.dst x.dim)
    t.xfers;
  if num_xfers t > 64 then Format.fprintf fmt "  ...@,";
  Format.fprintf fmt "@]"
