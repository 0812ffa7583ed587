(* Source lint for the lib/ tree, run as part of `dune runtest`.

   Three rules, each guarding an invariant the type checker cannot:

   1. No direct [Unix.gettimeofday] outside lib/util/clock.ml — budget and
      deadline math must go through the monotonic-clamped Syccl_util.Clock,
      because a wall-clock jump can make deadlines fire instantly or never.

   2. No top-level [Hashtbl.create] outside lib/util — a module-level table
      created at load time is shared mutable state that concurrent
      synthesize calls race on.  Shared tables belong in lib/util
      (Cache, Counters, Trace, Pool) where their locking is audited; local
      tables created inside functions are fine.

   3. No stdout printing ([print_string], [print_endline], [print_newline],
      [Printf.printf], [Format.printf]) in lib/ — libraries report through
      Counters/Trace or return values; only bin/ and tools/ own stdout.
      (Format.fprintf to an explicit formatter is fine.) *)

(* 4. No bare [assert] in validation paths (validate/refcheck modules and
      lib/check) — a check that exists to reject bad schedules must return
      [Result] with a counterexample message, not abort the process with an
      unlabelled [Assert_failure]: the fuzzer shrinks on messages, and
      servers must survive a failed validation. *)

(* 5. No dense-matrix allocation ([Array.make_matrix]) in lib/milp — the
      production solver is the revised simplex over sparse columns
      precisely because an m×n tableau is quadratic in the epoch model's
      size; a dense allocation creeping back in silently reintroduces the
      blowup.  The dense tableau survives only as the differential-testing
      oracle in lib/check/lp_dense.ml. *)

(* 6. Registered counter names: every string literal passed to
      Counters.bump/add/addf/observe must come from the central table in
      lib/util/counter_names.ml — exactly, or (for a literal composed with
      [^]) as one of its registered trailing-dot prefixes.  A typo'd name
      is invisible to the type checker and silently splits a metric into
      two time series no dashboard or test asserts on. *)

(* 7. Canonical fault-set literals: a string literal in lib/ spelling a
      fault set ("gpu:G", "link:D:A-B", "nic:G@P", comma-joined) must
      round-trip the canonical encoder — strict digits, no leading zeros,
      link endpoints A < B, elements sorted and deduplicated.  The
      encoding is folded into Topology.fingerprint and registry keys, so
      a non-canonical spelling silently addresses a different entry than
      the equivalent canonical one.  The grammar is re-implemented
      textually here to keep tools/ dependency-free; fault.ml (the
      encoder itself) and format strings (containing '%') are exempt. *)

(* 8. No direct [Sys.readdir] in lib/serve or lib/check outside
      registry.ml — the sharded registry's directory layout (shard
      fan-out, MANIFEST.json, temp files) is an implementation detail of
      Registry.  Code that walks a registry directory by hand sees
      mid-write temp files or a mid-compaction layout; enumeration must go
      through Registry.keys, which knows the layout and skips non-entry
      files. *)

(* 9. No hand-rolled XML emission ([printf]/[Buffer.add_string] of a
      literal opening with '<') outside lib/sim/msccl.ml — ad-hoc XML
      skips attribute escaping and the of_xml/replay round-trip oracle,
      which is exactly how unescaped names shipped malformed executor
      files.  Emission goes through Msccl.emit on a Msccl.program. *)

type rule = {
  name : string;
  hint : string;
  (* [flags path line_at_bol] where [line_at_bol] is true when the match
     starts at the beginning of a line (column 0). *)
  applies : string -> bool;  (* does this rule scan the given file? *)
  needles : string list;
  at_bol_only : bool;  (* only flag matches at column 0 (top level) *)
}

let rules =
  [
    {
      name = "Unix.gettimeofday";
      hint = "use Syccl_util.Clock.now";
      applies = (fun path -> Filename.basename path <> "clock.ml");
      needles = [ "Unix.gettimeofday" ];
      at_bol_only = false;
    };
    {
      name = "top-level Hashtbl.create";
      hint = "module-level mutable tables belong in lib/util (Cache/Counters)";
      applies =
        (fun path ->
          (* lib/util is the sanctioned home for shared tables. *)
          not (String.length path >= 8 && String.sub path 0 8 = "lib/util")
          && not
               (let re = "/lib/util/" in
                let n = String.length path and m = String.length re in
                let rec go i =
                  i + m <= n && (String.sub path i m = re || go (i + 1))
                in
                go 0));
      needles = [ "let " ];
      (* refined below: a top-level let whose binding calls Hashtbl.create *)
      at_bol_only = true;
    };
    {
      name = "stdout printing";
      hint = "libraries report via Counters/Trace or return values";
      applies = (fun _ -> true);
      needles =
        [
          "print_string"; "print_endline"; "print_newline"; "Printf.printf";
          "Format.printf";
        ];
      at_bol_only = false;
    };
    {
      name = "bare assert in validation path";
      hint = "validation rejections must be Result-returning, not Assert_failure";
      applies =
        (fun path ->
          let base = Filename.basename path in
          let has sub s =
            let n = String.length s and m = String.length sub in
            let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
            go 0
          in
          has "validate" base || has "refcheck" base || has "lib/check" path);
      needles = [ "assert " ];
      at_bol_only = false;
    };
    {
      name = "dense matrix in sparse solver";
      hint =
        "lib/milp is sparse-only; the dense tableau lives in \
         lib/check/lp_dense.ml (oracle)";
      applies =
        (fun path ->
          let has sub s =
            let n = String.length s and m = String.length sub in
            let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
            go 0
          in
          has "milp" path);
      needles = [ "Array.make_matrix" ];
      at_bol_only = false;
    };
    {
      name = "direct registry directory walk";
      hint =
        "enumerate registry entries via Registry.keys, not Sys.readdir \
         (the shard layout is Registry's implementation detail)";
      applies =
        (fun path ->
          let has sub s =
            let n = String.length s and m = String.length sub in
            let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
            go 0
          in
          (has "serve" path || has "check" path)
          && Filename.basename path <> "registry.ml");
      needles = [ "Sys.readdir" ];
      at_bol_only = false;
    };
    {
      name = "hand-rolled XML emission";
      hint =
        "XML is emitted only by Msccl.emit (lib/sim/msccl.ml), which \
         escapes attributes and is round-trip checked; build a \
         Msccl.program instead";
      applies = (fun path -> Filename.basename path <> "msccl.ml");
      needles = [];
      (* refined below: a printf/Buffer.add_string of a literal opening
         with '<' *)
      at_bol_only = false;
    };
  ]

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let lines_of s = String.split_on_char '\n' s

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let starts_with line needle =
  String.length line >= String.length needle
  && String.sub line 0 (String.length needle) = needle

(* Returns the 1-based line numbers a rule flags in [text]. *)
let flag rule text =
  lines_of text
  |> List.mapi (fun i line -> (i + 1, line))
  |> List.filter_map (fun (lineno, line) ->
         let hit =
           match rule.name with
           | "top-level Hashtbl.create" ->
               (* A binding at column 0 that creates a table right there. *)
               starts_with line "let " && contains line "Hashtbl.create"
           | "hand-rolled XML emission" ->
               (contains line "printf" || contains line "Buffer.add_string")
               && contains line "\"<"
           | _ ->
               List.exists
                 (fun needle ->
                   if rule.at_bol_only then starts_with line needle
                   else contains line needle)
                 rule.needles
         in
         if hit then Some lineno else None)

(* --- Rule 6: registered counter names ---------------------------------- *)

(* Every string literal in a source text with its 1-based line, in order.
   Comments are not stripped, so counter_names.ml must not quote names in
   prose (it says so at the top). *)
let string_literals_at text =
  let n = String.length text in
  let out = ref [] in
  let i = ref 0 in
  let line = ref 1 in
  while !i < n do
    if text.[!i] = '\n' then begin
      incr line;
      incr i
    end
    else if text.[!i] = '"' then begin
      let at = !line in
      let buf = Buffer.create 16 in
      incr i;
      let fin = ref false in
      while (not !fin) && !i < n do
        match text.[!i] with
        | '\\' when !i + 1 < n ->
            Buffer.add_char buf text.[!i + 1];
            i := !i + 2
        | '"' ->
            fin := true;
            incr i
        | c ->
            if c = '\n' then incr line;
            Buffer.add_char buf c;
            incr i
      done;
      out := (at, Buffer.contents buf) :: !out
    end
    else incr i
  done;
  List.rev !out

let string_literals text = List.map snd (string_literals_at text)

(* The registered table, parsed textually from counter_names.ml: literals
   ending in '.' are dynamic-family prefixes, the rest exact names. *)
let load_registered root =
  let path = Filename.concat root "util/counter_names.ml" in
  let lits = if Sys.file_exists path then string_literals (read_file path) else [] in
  List.partition (fun s -> s <> "" && s.[String.length s - 1] = '.') lits

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

(* Flag (lineno, name) pairs where a Counters.bump/add/addf/observe call
   passes an unregistered literal.  Non-literal first arguments (variables,
   record fields) are out of scope for a textual lint and skipped. *)
let flag_counter_names ~prefixes ~exacts text =
  let fns = [ "bump"; "add"; "addf"; "observe" ] in
  lines_of text
  |> List.mapi (fun i line -> (i + 1, line))
  |> List.concat_map (fun (lineno, line) ->
         let n = String.length line in
         let out = ref [] in
         let marker = "Counters." in
         let m = String.length marker in
         for j = 0 to n - m - 1 do
           if String.sub line j m = marker then
             List.iter
               (fun fn ->
                 let f = String.length fn in
                 if
                   j + m + f <= n
                   && String.sub line (j + m) f = fn
                   && (j + m + f = n || not (is_ident_char line.[j + m + f]))
                 then begin
                   (* Skip spaces and at most one opening paren, then
                      expect the literal (if any). *)
                   let k = ref (j + m + f) in
                   while !k < n && line.[!k] = ' ' do incr k done;
                   if !k < n && line.[!k] = '(' then begin
                     incr k;
                     while !k < n && line.[!k] = ' ' do incr k done
                   end;
                   if !k < n && line.[!k] = '"' then begin
                     let buf = Buffer.create 16 in
                     incr k;
                     while !k < n && line.[!k] <> '"' do
                       Buffer.add_char buf line.[!k];
                       incr k
                     done;
                     if !k < n then begin
                       incr k;
                       while !k < n && line.[!k] = ' ' do incr k done;
                       let composed = !k < n && line.[!k] = '^' in
                       let name = Buffer.contents buf in
                       let ok =
                         if composed then List.mem name prefixes
                         else
                           List.mem name exacts
                           || List.exists
                                (fun p -> starts_with name p)
                                prefixes
                       in
                       if not ok then out := (lineno, name) :: !out
                     end
                   end
                 end)
               fns
         done;
         List.rev !out)

let scan_counter_names ~prefixes ~exacts offenders path text =
  let base = Filename.basename path in
  if base = "counters.ml" || base = "counter_names.ml" then offenders
  else
    List.fold_left
      (fun offenders (lineno, name) ->
        Printf.sprintf
          "%s:%d: unregistered counter name %S (add it to \
           lib/util/counter_names.ml)"
          path lineno name
        :: offenders)
      offenders
      (flag_counter_names ~prefixes ~exacts text)

(* --- Rule 7: canonical fault-set literals ------------------------------ *)

(* Textual mirror of Fault.encode/decode's grammar (lib/topology/fault.ml):
   strict non-negative digits without leading zeros, gpu:G | link:D:A-B
   with A < B | nic:G@P, and sets as the comma-join of sorted distinct
   elements.  Returns the element's sort key (constructor order, then
   fields, matching the structural order on Fault.elt) or None when the
   spelling is not canonical. *)
let strict_int s =
  if s = "" then None
  else if String.exists (fun c -> c < '0' || c > '9') s then None
  else if String.length s > 1 && s.[0] = '0' then None
  else int_of_string_opt s

let fault_elt_key s =
  match String.index_opt s ':' with
  | None -> None
  | Some i -> (
      let kind = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match kind with
      | "gpu" -> (
          match strict_int rest with
          | Some g -> Some (0, g, 0, 0)
          | None -> None)
      | "link" -> (
          match String.index_opt rest ':' with
          | None -> None
          | Some j -> (
              let dim = strict_int (String.sub rest 0 j) in
              let pair = String.sub rest (j + 1) (String.length rest - j - 1) in
              match (dim, String.index_opt pair '-') with
              | Some dim, Some k -> (
                  match
                    ( strict_int (String.sub pair 0 k),
                      strict_int
                        (String.sub pair (k + 1) (String.length pair - k - 1))
                    )
                  with
                  | Some a, Some b when a < b -> Some (1, dim, a, b)
                  | _ -> None)
              | _ -> None))
      | "nic" -> (
          match String.index_opt rest '@' with
          | None -> None
          | Some j -> (
              match
                ( strict_int (String.sub rest 0 j),
                  strict_int
                    (String.sub rest (j + 1) (String.length rest - j - 1)) )
              with
              | Some g, Some p -> Some (2, g, p, 0)
              | _ -> None))
      | _ -> None)

let looks_like_fault_set s =
  List.exists (fun p -> starts_with s p) [ "gpu:"; "link:"; "nic:" ]

let fault_set_roundtrips s =
  let parts = String.split_on_char ',' s in
  let keys = List.map fault_elt_key parts in
  (not (List.mem None keys))
  &&
  (* Strict element parses re-encode to themselves, so the set is
     canonical iff its keys are strictly increasing (sorted, no dups). *)
  let rec increasing = function
    | a :: (b :: _ as rest) -> compare a b < 0 && increasing rest
    | _ -> true
  in
  increasing (List.map Option.get keys)

let scan_fault_literals offenders path text =
  if Filename.basename path = "fault.ml" then offenders
  else
    List.fold_left
      (fun offenders (lineno, lit) ->
        if
          looks_like_fault_set lit
          && (not (contains lit "%"))
          && not (fault_set_roundtrips lit)
        then
          Printf.sprintf
            "%s:%d: non-canonical fault-set literal %S (must round-trip \
             Fault.encode: strict digits, link A < B, sorted distinct \
             elements)"
            path lineno lit
          :: offenders
        else offenders)
      offenders (string_literals_at text)

let rec scan ~prefixes ~exacts offenders dir =
  Array.fold_left
    (fun offenders entry ->
      let path = Filename.concat dir entry in
      if Sys.is_directory path then scan ~prefixes ~exacts offenders path
      else if Filename.check_suffix entry ".ml" then begin
        let text = read_file path in
        let offenders =
          List.fold_left
            (fun offenders rule ->
              if rule.applies path then
                match flag rule text with
                | [] -> offenders
                | linenos ->
                    List.map
                      (fun l ->
                        Printf.sprintf "%s:%d: %s (%s)" path l rule.name
                          rule.hint)
                      linenos
                    @ offenders
              else offenders)
            offenders rules
        in
        let offenders = scan_counter_names ~prefixes ~exacts offenders path text in
        scan_fault_literals offenders path text
      end
      else offenders)
    offenders (Sys.readdir dir)

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "lib" in
  let prefixes, exacts = load_registered root in
  match scan ~prefixes ~exacts [] root with
  | [] -> ()
  | offenders ->
      prerr_endline "error: lint violations in lib/:";
      List.iter (fun p -> prerr_endline ("  " ^ p)) (List.sort compare offenders);
      exit 1
