module Links = Sgr_links.Links
module Net = Sgr_network.Network
module G = Sgr_graph

type t = Links of Links.t | Network of Net.t

let meaningful_lines text =
  String.split_on_char '\n' text
  |> List.mapi (fun i line -> (i + 1, String.trim line))
  |> List.filter (fun (_, line) -> line <> "" && line.[0] <> '#')

let errf lineno fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" lineno m)) fmt

let split_first line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
      (String.sub line 0 i, String.trim (String.sub line (i + 1) (String.length line - i - 1)))

let parse_links lines =
  let demand = ref None in
  let latencies = ref [] in
  let rec go = function
    | [] -> (
        match (!demand, List.rev !latencies) with
        | None, _ -> Error "missing 'demand' line"
        | _, [] -> Error "no 'link' lines"
        | Some d, lats -> (
            try Ok (Links (Links.make (Array.of_list lats) ~demand:d))
            with Invalid_argument m -> Error m))
    | (lineno, line) :: rest -> (
        let keyword, arg = split_first line in
        match String.lowercase_ascii keyword with
        | "demand" -> (
            match Latency_spec.number arg with
            | Some d when d >= 0.0 ->
                demand := Some d;
                go rest
            | _ -> errf lineno "demand expects a nonnegative number, got %S" arg)
        | "link" -> (
            match Latency_spec.parse arg with
            | Ok lat ->
                latencies := lat :: !latencies;
                go rest
            | Error m -> errf lineno "%s" m)
        | k -> errf lineno "unexpected keyword %S in a links instance" k)
  in
  go lines

let parse_network lines =
  let nodes = ref None in
  let edges = ref [] (* (src, dst, latency), reversed *) in
  let commodities = ref [] in
  let rec go = function
    | [] -> (
        match !nodes with
        | None -> Error "missing 'nodes' line"
        | Some n -> (
            let edges = List.rev !edges in
            let commodities = List.rev !commodities in
            if edges = [] then Error "no 'edge' lines"
            else if commodities = [] then Error "no 'commodity' lines"
            else
              try
                let b = G.Digraph.builder ~num_nodes:n in
                List.iter (fun (src, dst, _) -> ignore (G.Digraph.add_edge b ~src ~dst)) edges;
                let g = G.Digraph.freeze b in
                let latencies = Array.of_list (List.map (fun (_, _, l) -> l) edges) in
                Ok
                  (Network
                     (Net.make g ~latencies ~commodities:(Array.of_list commodities)))
              with Invalid_argument m -> Error m))
    | (lineno, line) :: rest -> (
        let keyword, arg = split_first line in
        match String.lowercase_ascii keyword with
        | "nodes" -> (
            match int_of_string_opt arg with
            | Some n when n > 0 ->
                nodes := Some n;
                go rest
            | _ -> errf lineno "nodes expects a positive integer, got %S" arg)
        | "edge" -> (
            let parts = String.split_on_char ' ' arg |> List.filter (fun w -> w <> "") in
            match parts with
            | a :: b :: spec_words when spec_words <> [] -> (
                match (int_of_string_opt a, int_of_string_opt b) with
                | Some src, Some dst -> (
                    match Latency_spec.parse (String.concat " " spec_words) with
                    | Ok lat ->
                        edges := (src, dst, lat) :: !edges;
                        go rest
                    | Error m -> errf lineno "%s" m)
                | _ -> errf lineno "edge endpoints must be integers")
            | _ -> errf lineno "edge expects 'edge SRC DST LATENCY-SPEC'")
        | "commodity" -> (
            let parts = String.split_on_char ' ' arg |> List.filter (fun w -> w <> "") in
            match parts with
            | [ a; b; d ] -> (
                match (int_of_string_opt a, int_of_string_opt b, Latency_spec.number d) with
                | Some src, Some dst, Some demand when demand >= 0.0 ->
                    commodities := { Net.src; dst; demand } :: !commodities;
                    go rest
                | _ -> errf lineno "commodity expects 'commodity SRC DST DEMAND'")
            | _ -> errf lineno "commodity expects 'commodity SRC DST DEMAND'")
        | k -> errf lineno "unexpected keyword %S in a network instance" k)
  in
  go lines

let parse text =
  match meaningful_lines text with
  | [] -> Error "empty instance"
  | (lineno, header) :: rest -> (
      match String.lowercase_ascii header with
      | "links" -> parse_links rest
      | "network" -> parse_network rest
      | h -> errf lineno "unknown instance header %S (expected 'links' or 'network')" h)

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
