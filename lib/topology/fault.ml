(* Fault sets: the hardware a punctured topology has lost.  A set is a
   canonically sorted, deduplicated element list with an exact round-trip
   string encoding — the encoding is folded into Topology.fingerprint and
   into registry keys, so canonicalization here is what makes "the same
   failure" hash to the same entry no matter how the caller spelled it. *)

module Perm = Syccl_util.Perm

type elt =
  | Gpu of int
  | Link of { dim : int; a : int; b : int }  (* undirected; a < b *)
  | Nic of { gpu : int; port_group : int }

(* Sort order: the derived order on the constructor declaration above.
   [Link] endpoints are normalized to a < b at construction, so structural
   comparison is a total order on canonical elements. *)
type t = elt list

let canon_elt = function
  | Link { dim; a; b } ->
      if a = b then invalid_arg "Fault: link endpoints must differ"
      else if a > b then Link { dim; a = b; b = a }
      else Link { dim; a; b }
  | (Gpu _ | Nic _) as e -> e

let check_elt = function
  | Gpu g when g < 0 -> invalid_arg "Fault: negative gpu"
  | Link { dim; a; b } when dim < 0 || a < 0 || b < 0 ->
      invalid_arg "Fault: negative link field"
  | Nic { gpu; port_group } when gpu < 0 || port_group < 0 ->
      invalid_arg "Fault: negative nic field"
  | _ -> ()

let empty = []
let is_empty t = t = []
let elements t = t
let equal = ( = )
let compare = Stdlib.compare

let of_list elts =
  let elts = List.map (fun e -> check_elt e; canon_elt e) elts in
  List.sort_uniq Stdlib.compare elts

let union a b = List.sort_uniq Stdlib.compare (a @ b)

(* --- canonical encoding -------------------------------------------------- *)

(* One element encodes as gpu:G, link:D:A-B (A < B), or nic:G@P; a set is
   the comma-join of its sorted elements ("" for the empty set).  decode
   accepts only this canonical spelling — it is the round-trip inverse of
   encode, which check_lint rule 7 relies on for fault strings in lib/. *)

let encode_elt = function
  | Gpu g -> Printf.sprintf "gpu:%d" g
  | Link { dim; a; b } -> Printf.sprintf "link:%d:%d-%d" dim a b
  | Nic { gpu; port_group } -> Printf.sprintf "nic:%d@%d" gpu port_group

let encode t = String.concat "," (List.map encode_elt t)

let bad s = invalid_arg ("Fault.decode: malformed fault element " ^ s)

(* Strict non-negative integer: digits only, no sign, no leading junk. *)
let int_of s err =
  if s = "" then bad err;
  String.iter (fun c -> if c < '0' || c > '9' then bad err) s;
  (* Reject non-canonical leading zeros ("01" re-encodes as "1"). *)
  if String.length s > 1 && s.[0] = '0' then bad err;
  int_of_string s

let decode_elt s =
  match String.index_opt s ':' with
  | None -> bad s
  | Some i -> (
      let kind = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match kind with
      | "gpu" -> Gpu (int_of rest s)
      | "nic" -> (
          match String.index_opt rest '@' with
          | None -> bad s
          | Some j ->
              Nic
                {
                  gpu = int_of (String.sub rest 0 j) s;
                  port_group =
                    int_of
                      (String.sub rest (j + 1) (String.length rest - j - 1))
                      s;
                })
      | "link" -> (
          match String.index_opt rest ':' with
          | None -> bad s
          | Some j -> (
              let dim = int_of (String.sub rest 0 j) s in
              let pair = String.sub rest (j + 1) (String.length rest - j - 1) in
              match String.index_opt pair '-' with
              | None -> bad s
              | Some k ->
                  let a = int_of (String.sub pair 0 k) s in
                  let b =
                    int_of
                      (String.sub pair (k + 1) (String.length pair - k - 1))
                      s
                  in
                  if a >= b then bad s;
                  Link { dim; a; b }))
      | _ -> bad s)

let decode s =
  if s = "" then empty
  else begin
    let elts = List.map decode_elt (String.split_on_char ',' s) in
    let t = of_list elts in
    (* Canonical spelling only: sorted, deduplicated, a < b. *)
    if encode t <> s then
      invalid_arg ("Fault.decode: non-canonical fault set " ^ s);
    t
  end

(* --- group action -------------------------------------------------------- *)

(* Image of a fault set under a GPU relabelling.  Meaningful when [p] is a
   topology automorphism (so dimension and port-group indices keep their
   meaning); the caller owns that contract. *)
let map_elt p = function
  | Gpu g -> Gpu (Perm.apply p g)
  | Link { dim; a; b } ->
      canon_elt (Link { dim; a = Perm.apply p a; b = Perm.apply p b })
  | Nic { gpu; port_group } -> Nic { gpu = Perm.apply p gpu; port_group }

let map p t = List.sort_uniq Stdlib.compare (List.map (map_elt p) t)
