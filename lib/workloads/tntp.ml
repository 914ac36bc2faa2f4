module Network = Sgr_network.Network
module L = Sgr_latency.Latency
module G = Sgr_graph

let fs = Printf.sprintf "%.17g"

(* ---------------- parsing ---------------- *)

let is_comment line = line = "" || line.[0] = '~' || line.[0] = '#'

(* Published TNTP files attach the separators to the numbers
   ("2 : 0.5;"), so ';' and ':' become tokens of their own. *)
let tokens line =
  let buf = Buffer.create (String.length line + 8) in
  String.iter
    (fun c ->
      match c with
      | '\t' -> Buffer.add_char buf ' '
      | ';' | ':' ->
          Buffer.add_char buf ' ';
          Buffer.add_char buf c;
          Buffer.add_char buf ' '
      | c -> Buffer.add_char buf c)
    line;
  String.split_on_char ' ' (Buffer.contents buf)
  |> List.map String.trim
  |> List.filter (fun w -> w <> "")

(* Metadata headers look like [<NUMBER OF NODES> 25]; the value is the
   first token after the closing bracket. *)
let metadata line =
  if String.length line > 0 && line.[0] = '<' then
    match String.index_opt line '>' with
    | None -> None
    | Some i ->
        let key = String.sub line 1 (i - 1) in
        let rest = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
        Some (String.uppercase_ascii key, rest)
  else None

let err ln fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" ln m)) fmt

let float_field ln name w k =
  match float_of_string_opt w with
  | Some v when Float.is_finite v -> k v
  | _ -> err ln "bad %s %S" name w

let int_field ln name w k =
  match int_of_string_opt w with Some v -> k v | None -> err ln "bad %s %S" name w

let parse_net text =
  let lines = String.split_on_char '\n' text in
  let nodes = ref None and links = ref None in
  let rows = ref [] in
  let rec scan ln = function
    | [] -> Ok ()
    | raw :: rest -> (
        let line = String.trim raw in
        if is_comment line then scan (ln + 1) rest
        else
          match metadata line with
          | Some ("NUMBER OF NODES", v) ->
              int_field ln "node count" v (fun n ->
                  if n < 1 || n > G.Digraph.max_nodes then
                    err ln "node count %d outside [1, %d]" n G.Digraph.max_nodes
                  else begin
                    nodes := Some n;
                    scan (ln + 1) rest
                  end)
          | Some ("NUMBER OF LINKS", v) ->
              int_field ln "link count" v (fun n ->
                  links := Some n;
                  scan (ln + 1) rest)
          | Some _ -> scan (ln + 1) rest (* FIRST THRU NODE, END OF METADATA, ... *)
          | None -> (
              match tokens line with
              | init :: term :: capacity :: _length :: fftime :: b :: power :: _ ->
                  int_field ln "init node" init @@ fun src ->
                  int_field ln "term node" term @@ fun dst ->
                  float_field ln "capacity" capacity @@ fun cap ->
                  float_field ln "free flow time" fftime @@ fun t0 ->
                  float_field ln "b" b @@ fun alpha ->
                  float_field ln "power" power @@ fun beta ->
                  if cap <= 0.0 then err ln "capacity must be positive"
                  else if t0 < 0.0 || alpha < 0.0 then err ln "negative BPR parameter"
                  else if beta < 1.0 then err ln "power must be >= 1"
                  else begin
                    rows := (ln, src, dst, cap, t0, alpha, beta) :: !rows;
                    scan (ln + 1) rest
                  end
              | _ -> err ln "malformed link row %S" line))
  in
  match scan 1 lines with
  | Error _ as e -> e
  | Ok () -> (
      match !nodes with
      | None -> Error "missing <NUMBER OF NODES> metadata"
      | Some n ->
          let rows = List.rev !rows in
          (match !links with
          | Some l when l <> List.length rows ->
              Error
                (Printf.sprintf "<NUMBER OF LINKS> says %d but the table has %d rows" l
                   (List.length rows))
          | _ -> Ok ())
          |> Result.map (fun () -> (n, rows)))

let build_net (n, rows) =
  let b = G.Digraph.builder ~num_nodes:n in
  let rec add lats = function
    | [] -> Ok (List.rev lats)
    | (ln, src, dst, cap, t0, alpha, beta) :: rest ->
        if src < 1 || src > n || dst < 1 || dst > n then
          err ln "node id out of range [1, %d]" n
        else if src = dst then err ln "self loops are not allowed"
        else begin
          ignore (G.Digraph.add_edge b ~src:(src - 1) ~dst:(dst - 1));
          add (L.bpr ~free_flow:t0 ~capacity:cap ~alpha ~beta:beta () :: lats) rest
        end
  in
  match add [] rows with
  | Error _ as e -> e
  | Ok lats -> Ok (G.Digraph.freeze b, Array.of_list lats)

let parse_trips ~num_nodes text =
  let lines = String.split_on_char '\n' text in
  let commodities = ref [] in
  let origin = ref None in
  let pair ln w =
    (* One "dst : demand ;" group, tokens already split. *)
    match w with
    | [ d; ":"; v ] ->
        int_field ln "destination" d @@ fun dst ->
        float_field ln "demand" v @@ fun demand ->
        if dst < 1 || dst > num_nodes then err ln "destination out of range"
        else if demand < 0.0 then err ln "negative demand"
        else begin
          (match !origin with
          | Some src when demand > 0.0 ->
              commodities := { Network.src = src - 1; dst = dst - 1; demand } :: !commodities
          | Some _ -> ()
          | None -> ());
          if !origin = None then err ln "destination pair before any Origin header"
          else Ok ()
        end
    | _ -> err ln "malformed destination pair"
  in
  let rec groups ln = function
    | [] -> Ok ()
    | [] :: rest -> groups ln rest
    | w :: rest -> (
        (* Split a physical line on ';' into pairs. *)
        match w with
        | [ "Origin"; o ] ->
            int_field ln "origin" o @@ fun src ->
            if src < 1 || src > num_nodes then err ln "origin out of range"
            else begin
              origin := Some src;
              groups ln rest
            end
        | _ ->
            let rec pairs acc = function
              | [] -> Ok acc
              | ";" :: more -> pairs acc more
              | d :: ":" :: v :: more -> (
                  match pair ln [ d; ":"; v ] with
                  | Error _ as e -> e
                  | Ok () -> pairs acc more)
              | tok :: _ -> err ln "unexpected token %S in trips" tok
            in
            (match pairs () w with Error _ as e -> e | Ok () -> groups ln rest))
  in
  let token_lines =
    List.mapi
      (fun i raw ->
        let line = String.trim raw in
        if is_comment line || metadata line <> None then (i + 1, [])
        else (i + 1, tokens line))
      lines
  in
  let rec run = function
    | [] -> Ok ()
    | (ln, w) :: rest -> ( match groups ln [ w ] with Error _ as e -> e | Ok () -> run rest)
  in
  match run token_lines with
  | Error _ as e -> e
  | Ok () -> Ok (Array.of_list (List.rev !commodities))

let parse ~net ~trips =
  match parse_net net with
  | Error _ as e -> e
  | Ok meta -> (
      match build_net meta with
      | Error _ as e -> e
      | Ok (g, latencies) -> (
          match parse_trips ~num_nodes:(G.Digraph.num_nodes g) trips with
          | Error _ as e -> e
          | Ok commodities -> (
              match Network.make g ~latencies ~commodities with
              | net -> Ok net
              | exception Invalid_argument m -> Error m)))

(* ---------------- printing ---------------- *)

let bpr_row lat =
  match L.kind lat with
  | L.Bpr { free_flow; capacity; alpha; beta } -> Ok (capacity, free_flow, alpha, beta)
  | L.Affine { slope; intercept } when intercept > 0.0 ->
      (* t0·(1 + b·x/c) with c = 1: b = slope / intercept. *)
      Ok (1.0, intercept, slope /. intercept, 1.0)
  | L.Constant c -> Ok (1.0, c, 0.0, 1.0)
  | _ -> Error (Printf.sprintf "latency %s has no BPR encoding" (L.to_string lat))

let print_net (net : Network.t) =
  let g = net.Network.graph in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "<NUMBER OF NODES> %d\n" (G.Digraph.num_nodes g));
  Buffer.add_string buf (Printf.sprintf "<NUMBER OF LINKS> %d\n" (G.Digraph.num_edges g));
  Buffer.add_string buf "<FIRST THRU NODE> 1\n<END OF METADATA>\n";
  Buffer.add_string buf "~ init term capacity length fftime b power speed toll type ;\n";
  let src = G.Digraph.edge_sources g and dst = G.Digraph.edge_targets g in
  let rec rows e =
    if e = G.Digraph.num_edges g then Ok ()
    else
      match bpr_row net.Network.latencies.(e) with
      | Error m -> Error (Printf.sprintf "edge %d: %s" e m)
      | Ok (cap, t0, alpha, beta) ->
          Buffer.add_string buf
            (Printf.sprintf "%d %d %s 1 %s %s %s 0 0 1 ;\n" (src.(e) + 1) (dst.(e) + 1)
               (fs cap) (fs t0) (fs alpha) (fs beta));
          rows (e + 1)
  in
  match rows 0 with Error _ as e -> e | Ok () -> Ok (Buffer.contents buf)

let print_trips (net : Network.t) =
  let buf = Buffer.create 256 in
  let ks = net.Network.commodities in
  let origins = ref [] in
  Array.iter
    (fun (c : Network.commodity) ->
      if not (List.mem c.Network.src !origins) then origins := c.Network.src :: !origins)
    ks;
  let origins = List.rev !origins in
  Buffer.add_string buf (Printf.sprintf "<NUMBER OF ZONES> %d\n" (List.length origins));
  Buffer.add_string buf "<END OF METADATA>\n";
  List.iter
    (fun o ->
      Buffer.add_string buf (Printf.sprintf "Origin %d\n" (o + 1));
      Array.iter
        (fun (c : Network.commodity) ->
          if c.Network.src = o then
            Buffer.add_string buf
              (Printf.sprintf "  %d : %s ;\n" (c.Network.dst + 1) (fs c.Network.demand)))
        ks)
    origins;
  Buffer.contents buf
