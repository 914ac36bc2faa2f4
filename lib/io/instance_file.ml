module Links = Sgr_links.Links
module Net = Sgr_network.Network
module G = Sgr_graph

type t = Links of Links.t | Network of Net.t

(* The one pass over the text. Lines are read in place: a line is the
   offsets [lo, hi) of its trimmed bytes, its keyword the bytes up to
   the first space, and the words after it are offsets too: endpoints
   and counts are read where they stand, and a latency spec is handed
   to [Latency_spec.parse_sub] as a slice. *)

exception Bad of string

let fail lineno fmt =
  Printf.ksprintf (fun m -> raise (Bad (Printf.sprintf "line %d: %s" lineno m))) fmt

(* [String.trim]'s blanks. *)
let is_blank c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'

(* [text.[lo .. hi)] equals the lowercase word [w], ignoring ASCII case. *)
let keyword_is text lo hi w =
  hi - lo = String.length w
  &&
  let i = ref 0 in
  while !i < String.length w && Char.lowercase_ascii text.[lo + !i] = w.[!i] do
    incr i
  done;
  !i = String.length w

(* The scanners below read [text] unchecked. Every offset they are
   given comes from [iter_lines], whose lines lie within the text, or
   from another scanner, which returns an offset in [lo, hi] of the
   slice it was given; each reads an offset only while it is below
   [hi], at most [String.length text]. *)

(* The end of the word starting at [i] (the next space, or [hi]), and
   the start of the word after the spaces at [i] (or [hi]). Each reads
   [j] only while it is below [hi]. *)
let word_end text i hi =
  let j = ref i in
  while !j < hi && String.unsafe_get text !j <> ' ' do
    incr j
  done;
  !j
[@@lint.allow "unchecked-access"]

let skip_spaces text i hi =
  let j = ref i in
  while !j < hi && String.unsafe_get text !j = ' ' do
    incr j
  done;
  !j
[@@lint.allow "unchecked-access"]

(* Reads [i] and [i + 1] only while [i + 1 < hi]. *)
let double_space text lo hi =
  let i = ref lo in
  while
    !i + 1 < hi && not (String.unsafe_get text !i = ' ' && String.unsafe_get text (!i + 1) = ' ')
  do
    incr i
  done;
  !i + 1 < hi
[@@lint.allow "unchecked-access"]

(* [int_of_string] on [text.[lo .. hi)], raising [Exit] where
   [int_of_string_opt] gives [None]. A plain run of at most 18 decimal
   digits, the form every printer writes, is read in place, [i] only
   while it is below [hi]. *)
let int_at text lo hi =
  let n = ref 0 and i = ref lo in
  while
    !i < hi
    &&
    let c = String.unsafe_get text !i in
    c >= '0' && c <= '9'
  do
    n := (10 * !n) + (Char.code (String.unsafe_get text !i) - 48);
    incr i
  done;
  if !i = hi && hi > lo && hi - lo <= 18 then !n
  else
    match int_of_string_opt (String.sub text lo (hi - lo)) with
    | Some n -> n
    | None -> raise_notrace Exit
[@@lint.allow "unchecked-access"]

(* A growable array. Its first allocation takes [hint] slots, then it
   doubles. *)
type 'a column = { mutable data : 'a array; mutable len : int; hint : int }

let push col x =
  if col.len = Array.length col.data then begin
    let grown = Array.make (max col.hint (2 * col.len)) x in
    Array.blit col.data 0 grown 0 col.len;
    col.data <- grown
  end;
  col.data.(col.len) <- x;
  col.len <- col.len + 1

(* [push] on an [int column]: the type fixes the array's kind, so the
   store is a plain one, where [push]'s polymorphic store tests for a
   float array and goes through the write barrier. *)
let push_int (col : int column) x =
  if col.len = Array.length col.data then begin
    let grown = Array.make (max col.hint (2 * col.len)) 0 in
    Array.blit col.data 0 grown 0 col.len;
    col.data <- grown
  end;
  col.data.(col.len) <- x;
  col.len <- col.len + 1

let column hint = { data = [||]; len = 0; hint }
let contents col = Array.sub col.data 0 col.len

(* The first size of a column of link or edge lines: the text's length
   over 40 bytes, a little below the length of a canonical edge line,
   so a canonical instance's columns never grow, without a pass over
   the text to count its lines. Commodity columns start at 16. *)
let line_hint text = (String.length text / 40) + 16

(* Calls [line lineno lo kw_end arg_lo hi] on every line that is not
   blank or a comment, in order: [lo, kw_end) is its first word (up to
   the first space), [arg_lo, hi) the trimmed rest.

   Unchecked: [stop] is read only while below the text's length, and
   every other offset read lies in [pos, stop): [lo] only while below
   [hi <= stop], [hi - 1] only while above [lo >= pos], [kw_end] and
   [arg_lo] only while below [hi]. *)
let iter_lines text line =
  let len = String.length text in
  let pos = ref 0 and lineno = ref 0 in
  while !pos <= len do
    let stop = ref !pos in
    while !stop < len && String.unsafe_get text !stop <> '\n' do
      incr stop
    done;
    incr lineno;
    let lo = ref !pos and hi = ref !stop in
    while !lo < !hi && is_blank (String.unsafe_get text !lo) do
      incr lo
    done;
    while !hi > !lo && is_blank (String.unsafe_get text (!hi - 1)) do
      decr hi
    done;
    pos := !stop + 1;
    if !lo < !hi && String.unsafe_get text !lo <> '#' then begin
      let kw_end = ref !lo in
      while !kw_end < !hi && String.unsafe_get text !kw_end <> ' ' do
        incr kw_end
      done;
      let arg_lo = ref !kw_end in
      while !arg_lo < !hi && is_blank (String.unsafe_get text !arg_lo) do
        incr arg_lo
      done;
      line !lineno !lo !kw_end !arg_lo !hi
    end
  done
[@@lint.allow "unchecked-access"]

let lowercase text lo hi = String.lowercase_ascii (String.sub text lo (hi - lo))

(* What the lines after the header have declared so far. *)
type links_acc = { mutable demand : float option; links : Sgr_latency.Latency.t column }

type network_acc = {
  mutable nodes : int option;
  srcs : int column;
  dsts : int column;
  lines : int column;  (* the line of each edge *)
  latencies : Sgr_latency.Latency.t column;
  commodities : Net.commodity column;
  commodity_lines : int column;  (* the line of each commodity *)
}

let links_line acc text lineno lo kw_end arg_lo hi =
  let arg () = String.sub text arg_lo (hi - arg_lo) in
  if keyword_is text lo kw_end "demand" then
    match Latency_spec.number_sub text arg_lo hi with
    | Some d when d >= 0.0 -> acc.demand <- Some d
    | _ -> fail lineno "demand expects a nonnegative number, got %S" (arg ())
  else if keyword_is text lo kw_end "link" then
    match Latency_spec.parse_sub text arg_lo hi with
    | Ok lat -> push acc.links lat
    | Error m -> fail lineno "%s" m
  else fail lineno "unexpected keyword %S in a links instance" (lowercase text lo kw_end)

let links_end acc =
  match (acc.demand, acc.links.len) with
  | None, _ -> Error "missing 'demand' line"
  | _, 0 -> Error "no 'link' lines"
  | Some d, _ -> (
      try Ok (Links (Links.make (contents acc.links) ~demand:d)) with Invalid_argument m -> Error m)

let network_line acc text lineno lo kw_end arg_lo hi =
  if keyword_is text lo kw_end "nodes" then begin
    let arg = String.sub text arg_lo (hi - arg_lo) in
    match int_of_string_opt arg with
    | Some n when n > G.Digraph.max_nodes ->
        fail lineno "nodes %d exceeds the limit of %d" n G.Digraph.max_nodes
    | Some n when n > 0 -> acc.nodes <- Some n
    | _ -> fail lineno "nodes expects a positive integer, got %S" arg
  end
  else if keyword_is text lo kw_end "edge" then begin
    (* Words are split on spaces: [a] and [b], then the spec from the
       third word to the end of the line. *)
    let a_end = word_end text arg_lo hi in
    let b_lo = skip_spaces text a_end hi in
    let b_end = word_end text b_lo hi in
    let spec_lo = skip_spaces text b_end hi in
    if b_lo = hi || spec_lo = hi then fail lineno "edge expects 'edge SRC DST LATENCY-SPEC'";
    match (int_at text arg_lo a_end, int_at text b_lo b_end) with
    | src, dst -> (
        let spec =
          (* The spec is its words joined by single spaces. That is the
             slice itself unless two spaces meet in it, and even then
             only an error message, which may quote the text, can
             differ. *)
          match Latency_spec.parse_sub text spec_lo hi with
          | Error _ when double_space text spec_lo hi ->
              Latency_spec.parse
                (String.concat " "
                   (List.filter (( <> ) "")
                      (String.split_on_char ' ' (String.sub text spec_lo (hi - spec_lo)))))
          | result -> result
        in
        match spec with
        | Ok lat ->
            push_int acc.srcs src;
            push_int acc.dsts dst;
            push_int acc.lines lineno;
            push acc.latencies lat
        | Error m -> fail lineno "%s" m)
    | exception Exit -> fail lineno "edge endpoints must be integers"
  end
  else if keyword_is text lo kw_end "commodity" then begin
    let usage () = fail lineno "commodity expects 'commodity SRC DST DEMAND'" in
    let a_end = word_end text arg_lo hi in
    let b_lo = skip_spaces text a_end hi in
    let b_end = word_end text b_lo hi in
    let d_lo = skip_spaces text b_end hi in
    let d_end = word_end text d_lo hi in
    if b_lo = hi || d_lo = hi || skip_spaces text d_end hi < hi then usage ();
    match
      (int_at text arg_lo a_end, int_at text b_lo b_end, Latency_spec.number_sub text d_lo d_end)
    with
    | src, dst, Some demand when demand >= 0.0 ->
        push acc.commodities { Net.src; dst; demand };
        push_int acc.commodity_lines lineno
    | _ | (exception Exit) -> usage ()
  end
  else fail lineno "unexpected keyword %S in a network instance" (lowercase text lo kw_end)

let network_end acc =
  match acc.nodes with
  | None -> Error "missing 'nodes' line"
  | Some _ when acc.srcs.len = 0 -> Error "no 'edge' lines"
  | Some _ when acc.commodities.len = 0 -> Error "no 'commodity' lines"
  | Some n -> (
      (* Endpoints are checked once the node count is known: the [nodes]
         line may come after the edges. *)
      for e = 0 to acc.srcs.len - 1 do
        let src = acc.srcs.data.(e) and dst = acc.dsts.data.(e) in
        if src < 0 || src >= n || dst < 0 || dst >= n then
          fail acc.lines.data.(e) "edge endpoint out of range [0, %d)" n;
        if src = dst then fail acc.lines.data.(e) "self loops are not allowed"
      done;
      for k = 0 to acc.commodities.len - 1 do
        let { Net.src; dst; _ } = acc.commodities.data.(k) in
        if src < 0 || src >= n || dst < 0 || dst >= n then
          fail acc.commodity_lines.data.(k) "commodity endpoint out of range [0, %d)" n;
        if src = dst then fail acc.commodity_lines.data.(k) "commodity source equals destination"
      done;
      try
        let graph =
          G.Digraph.of_arrays ~num_nodes:n ~srcs:(contents acc.srcs) ~dsts:(contents acc.dsts)
        in
        Ok
          (Network
             (Net.make graph ~latencies:(contents acc.latencies)
                ~commodities:(contents acc.commodities)))
      with Invalid_argument m -> Error m)

type section = Header | Links_body of links_acc | Network_body of network_acc

let parse text =
  let section = ref Header in
  let line lineno lo kw_end arg_lo hi =
    match !section with
    | Links_body acc -> links_line acc text lineno lo kw_end arg_lo hi
    | Network_body acc -> network_line acc text lineno lo kw_end arg_lo hi
    | Header ->
        let hint = line_hint text in
        if keyword_is text lo hi "links" then
          section := Links_body { demand = None; links = column hint }
        else if keyword_is text lo hi "network" then
          section :=
            Network_body
              {
                nodes = None;
                srcs = column hint;
                dsts = column hint;
                lines = column hint;
                latencies = column hint;
                commodities = column 16;
                commodity_lines = column 16;
              }
        else
          fail lineno "unknown instance header %S (expected 'links' or 'network')"
            (lowercase text lo hi)
  in
  try
    iter_lines text line;
    match !section with
    | Header -> Error "empty instance"
    | Links_body acc -> links_end acc
    | Network_body acc -> network_end acc
  with Bad m -> Error m

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> ( match parse text with Ok t -> Ok t | Error m -> Error (path ^ ": " ^ m))
  | exception Sys_error m -> Error m

(* The [_exn] variant's whole contract is turning [Error] into [Failure]. *)
let load_exn path =
  match load path with Ok t -> t | Error m -> (failwith m) [@lint.allow "no-untyped-failure"]

let print_links (t : Links.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "links\n";
  Buffer.add_string buf (Printf.sprintf "demand %.12g\n" t.Links.demand);
  Array.iter
    (fun lat -> Buffer.add_string buf (Printf.sprintf "link %s\n" (Latency_spec.print lat)))
    t.Links.latencies;
  Buffer.contents buf

(* Canonical serialization: same grammar as the human printers below but
   with a fixed field order and every float as a hex literal ([%h]), so
   the text round-trips through [parse] bit-exactly and two structurally
   equal instances serialize to the same bytes. This is the string the
   serving layer fingerprints. *)
let to_string = function
  | Links (t : Links.t) ->
      let buf = Buffer.create 256 in
      Buffer.add_string buf "links\n";
      Buffer.add_string buf (Printf.sprintf "demand %h\n" t.Links.demand);
      Array.iter
        (fun lat ->
          Buffer.add_string buf
            (Printf.sprintf "link %s\n" (Latency_spec.print_canonical lat)))
        t.Links.latencies;
      Buffer.contents buf
  | Network (net : Net.t) ->
      let buf = Buffer.create 512 in
      Buffer.add_string buf "network\n";
      Buffer.add_string buf (Printf.sprintf "nodes %d\n" (G.Digraph.num_nodes net.Net.graph));
      Array.iter
        (fun (e : G.Digraph.edge) ->
          Buffer.add_string buf
            (Printf.sprintf "edge %d %d %s\n" e.src e.dst
               (Latency_spec.print_canonical net.Net.latencies.(e.id))))
        (G.Digraph.edges net.Net.graph);
      Array.iter
        (fun c ->
          Buffer.add_string buf
            (Printf.sprintf "commodity %d %d %h\n" c.Net.src c.Net.dst c.Net.demand))
        net.Net.commodities;
      Buffer.contents buf

let print_network (net : Net.t) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "network\n";
  Buffer.add_string buf (Printf.sprintf "nodes %d\n" (G.Digraph.num_nodes net.Net.graph));
  Array.iter
    (fun (e : G.Digraph.edge) ->
      Buffer.add_string buf
        (Printf.sprintf "edge %d %d %s\n" e.src e.dst
           (Latency_spec.print net.Net.latencies.(e.id))))
    (G.Digraph.edges net.Net.graph);
  Array.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "commodity %d %d %.12g\n" c.Net.src c.Net.dst c.Net.demand))
    net.Net.commodities;
  Buffer.contents buf
