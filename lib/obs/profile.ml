(* In-process span profiler: a Trace consumer that aggregates the
   B/E span stream into self/total-time statistics instead of (or in
   addition to) writing it to disk.

   All mutable state is per-domain: each domain that emits spans gets
   its own stack + aggregation tables (events are dispatched
   synchronously on the emitting domain, so no locks are needed on the
   hot path). A global registry of per-domain states, guarded by a
   mutex, exists only so snapshots can merge across domains; snapshots
   are meant to be taken at quiescence (Par.Pool joins all helpers
   before returning, so any point between parallel phases qualifies). *)

type agg = {
  mutable count : int;
  mutable total_ns : float;
  mutable self_ns : float;
  mutable min_ns : float;
  mutable max_ns : float;
  buckets : int array;  (* Metrics' power-of-two duration buckets *)
}

let fresh_agg () =
  { count = 0;
    total_ns = 0.0;
    self_ns = 0.0;
    min_ns = Float.infinity;
    max_ns = Float.neg_infinity;
    buckets = Array.make Metrics.n_buckets 0 }

type frame = {
  fname : string;
  start_ns : int64;
  path : string;  (* "root;child;grandchild" — folded-stacks key *)
  mutable child_ns : float;
}

type dstate = {
  dom : int;
  mutable stack : frame list;
  by_name : (string, agg) Hashtbl.t;
  folded_tbl : (string, float ref) Hashtbl.t;  (* path -> self ns *)
  mutable unmatched : int;  (* E events with no open B (consumer installed mid-span) *)
}

let states : dstate list ref = ref []
let states_lock = Mutex.create ()

let dls_key =
  Domain.DLS.new_key (fun () ->
      let s =
        { dom = (Domain.self () :> int) + 1;
          stack = [];
          by_name = Hashtbl.create 64;
          folded_tbl = Hashtbl.create 64;
          unmatched = 0 }
      in
      Mutex.protect states_lock (fun () -> states := s :: !states);
      s)

let agg_for tbl name =
  match Hashtbl.find_opt tbl name with
  | Some a -> a
  | None ->
    let a = fresh_agg () in
    Hashtbl.replace tbl name a;
    a

let record_close st (fr : frame) ~ts_ns =
  let dur = Clock.ns_between fr.start_ns ts_ns in
  let self = Float.max 0.0 (dur -. fr.child_ns) in
  (match st.stack with
  | parent :: _ -> parent.child_ns <- parent.child_ns +. dur
  | [] -> ());
  let a = agg_for st.by_name fr.fname in
  a.count <- a.count + 1;
  a.total_ns <- a.total_ns +. dur;
  a.self_ns <- a.self_ns +. self;
  if dur < a.min_ns then a.min_ns <- dur;
  if dur > a.max_ns then a.max_ns <- dur;
  let b = Metrics.bucket_of dur in
  a.buckets.(b) <- a.buckets.(b) + 1;
  match Hashtbl.find_opt st.folded_tbl fr.path with
  | Some r -> r := !r +. self
  | None -> Hashtbl.replace st.folded_tbl fr.path (ref self)

let handle ~ts_ns ~tid:_ (ev : Trace.event) =
  let st = Domain.DLS.get dls_key in
  match ev with
  | Trace.Begin { name; _ } ->
    let path =
      match st.stack with [] -> name | p :: _ -> p.path ^ ";" ^ name
    in
    st.stack <- { fname = name; start_ns = ts_ns; path; child_ns = 0.0 } :: st.stack
  | Trace.End { name } -> (
    match st.stack with
    | fr :: rest when fr.fname = name ->
      st.stack <- rest;
      record_close st fr ~ts_ns
    | _ ->
      (* An E whose B predates this consumer, or an interleaving bug
         upstream; drop it rather than corrupting the stack. *)
      st.unmatched <- st.unmatched + 1)
  | Trace.Instant _ | Trace.Counter _ -> ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let consumer_name = "profile"

let reset () =
  Mutex.protect states_lock @@ fun () ->
  List.iter
    (fun s ->
      s.stack <- [];
      Hashtbl.reset s.by_name;
      Hashtbl.reset s.folded_tbl;
      s.unmatched <- 0)
    !states

let enable () =
  reset ();
  Trace.add_consumer
    { Trace.cname = consumer_name; handle; flush = ignore; close = ignore }

let disable () = Trace.remove_consumer consumer_name
let enabled () = Trace.consumer_installed consumer_name

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type row = {
  name : string;
  count : int;
  total_ns : float;
  self_ns : float;
  min_ns : float;
  max_ns : float;
  p50_ns : float;
  p95_ns : float;
}

let quantile (a : agg) q =
  Metrics.bucket_quantile a.buckets ~count:a.count ~lo:a.min_ns ~hi:a.max_ns q

let row_of_agg name (a : agg) =
  { name;
    count = a.count;
    total_ns = a.total_ns;
    self_ns = a.self_ns;
    min_ns = (if a.count = 0 then 0.0 else a.min_ns);
    max_ns = (if a.count = 0 then 0.0 else a.max_ns);
    p50_ns = quantile a 0.5;
    p95_ns = quantile a 0.95 }

let sort_rows rows =
  List.sort (fun a b -> compare (b.self_ns, b.name) (a.self_ns, a.name)) rows

let merge_into acc (name, (a : agg)) =
  let m =
    match Hashtbl.find_opt acc name with
    | Some m -> m
    | None ->
      let m = fresh_agg () in
      Hashtbl.replace acc name m;
      m
  in
  m.count <- m.count + a.count;
  m.total_ns <- m.total_ns +. a.total_ns;
  m.self_ns <- m.self_ns +. a.self_ns;
  if a.count > 0 then begin
    if a.min_ns < m.min_ns then m.min_ns <- a.min_ns;
    if a.max_ns > m.max_ns then m.max_ns <- a.max_ns
  end;
  Array.iteri (fun i n -> m.buckets.(i) <- m.buckets.(i) + n) a.buckets

let with_states f = Mutex.protect states_lock (fun () -> f !states)

let rows () =
  with_states @@ fun states ->
  let acc = Hashtbl.create 64 in
  List.iter
    (fun s -> Hashtbl.iter (fun name a -> merge_into acc (name, a)) s.by_name)
    states;
  sort_rows (Hashtbl.fold (fun name a l -> row_of_agg name a :: l) acc [])

let rows_by_domain () =
  with_states @@ fun states ->
  List.filter_map
    (fun s ->
      if Hashtbl.length s.by_name = 0 then None
      else
        Some
          ( s.dom,
            sort_rows
              (Hashtbl.fold (fun name a l -> row_of_agg name a :: l) s.by_name []) ))
    states
  |> List.sort compare

let folded () =
  let acc = Hashtbl.create 64 in
  with_states (fun states ->
      List.iter
        (fun s ->
          Hashtbl.iter
            (fun path self ->
              match Hashtbl.find_opt acc path with
              | Some r -> r := !r +. !self
              | None -> Hashtbl.replace acc path (ref !self))
            s.folded_tbl)
        states);
  Hashtbl.fold (fun path r l -> (path, !r) :: l) acc [] |> List.sort compare

let unmatched () = with_states (List.fold_left (fun n s -> n + s.unmatched) 0)

(* ------------------------------------------------------------------ *)
(* Exports                                                             *)
(* ------------------------------------------------------------------ *)

let write_folded oc =
  (* flamegraph.pl wants integer sample counts; emit microseconds of
     self time so stack widths remain proportional to time. *)
  List.iter
    (fun (path, self_ns) ->
      Printf.fprintf oc "%s %.0f\n" path (Clock.ns_to_us self_ns))
    (folded ())

let row_json r =
  Json.Obj
    [ ("name", Json.String r.name);
      ("count", Json.Int r.count);
      ("total_ns", Json.Float r.total_ns);
      ("self_ns", Json.Float r.self_ns);
      ("min_ns", Json.Float r.min_ns);
      ("max_ns", Json.Float r.max_ns);
      ("p50_ns", Json.Float r.p50_ns);
      ("p95_ns", Json.Float r.p95_ns) ]

let to_json () =
  Json.Obj
    [ ("spans", Json.List (List.map row_json (rows ())));
      ( "by_domain",
        Json.List
          (List.map
             (fun (dom, rows) ->
               Json.Obj
                 [ ("domain", Json.Int dom);
                   ("spans", Json.List (List.map row_json rows)) ])
             (rows_by_domain ())) );
      ( "folded",
        Json.Obj (List.map (fun (p, ns) -> (p, Json.Float ns)) (folded ())) );
      ("unmatched", Json.Int (unmatched ())) ]

let pp fmt () =
  let rows = rows () in
  if rows = [] then Format.fprintf fmt "(no spans recorded)@."
  else begin
    let total_self = List.fold_left (fun a r -> a +. r.self_ns) 0.0 rows in
    Format.fprintf fmt "%-28s %8s %10s %10s %6s %9s %9s@." "span" "count"
      "self_ms" "total_ms" "self%" "p50_us" "p95_us";
    List.iter
      (fun r ->
        Format.fprintf fmt "%-28s %8d %10.2f %10.2f %5.1f%% %9.1f %9.1f@."
          r.name r.count
          (Clock.ns_to_ms r.self_ns)
          (Clock.ns_to_ms r.total_ns)
          (if total_self = 0.0 then 0.0 else 100.0 *. r.self_ns /. total_self)
          (Clock.ns_to_us r.p50_ns)
          (Clock.ns_to_us r.p95_ns))
      rows
  end
