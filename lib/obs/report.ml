let hist_json (h : Metrics.hist_snapshot) ~quantile =
  Json.Obj
    [ ("count", Json.Int h.count);
      ("sum", Json.Float h.sum);
      ("min", Json.Float (if h.count = 0 then 0.0 else h.min));
      ("max", Json.Float (if h.count = 0 then 0.0 else h.max));
      ("mean", Json.Float (if h.count = 0 then 0.0 else h.sum /. float_of_int h.count));
      ("p50", Json.Float (quantile 0.5));
      ("p95", Json.Float (quantile 0.95)) ]

let value_json (v : Metrics.value) ~quantile =
  match v with
  | Metrics.Counter c -> Json.Int c
  | Metrics.Gauge g -> Json.Float g
  | Metrics.Histogram h -> hist_json h ~quantile

(* Quantiles need the live histogram (snapshots drop the buckets);
   re-resolve it by name, which returns the registered instance. *)
let quantile_of name label = function
  | Metrics.Histogram _ ->
    let h = Metrics.histogram ?label name in
    fun q -> Metrics.hist_quantile h q
  | _ -> fun _ -> 0.0

let metrics_json () =
  Json.List
    (List.map
       (fun (name, label, v) ->
         let base =
           [ ("name", Json.String name) ]
           @ (match label with Some l -> [ ("label", Json.String l) ] | None -> [])
         in
         Json.Obj (base @ [ ("value", value_json v ~quantile:(quantile_of name label v)) ]))
       (Metrics.snapshot ()))

let label_table names =
  let snap = Metrics.snapshot () in
  let labels =
    List.sort_uniq compare
      (List.filter_map
         (fun (name, label, _) ->
           match label with Some l when List.mem name names -> Some l | _ -> None)
         snap)
  in
  let find name label =
    List.find_map
      (fun (n, l, v) -> if n = name && l = Some label then Some v else None)
      snap
  in
  List.map (fun l -> (l, List.map (fun n -> find n l) names)) labels

(* ------------------------------------------------------------------ *)
(* Attribution snapshot                                                *)
(* ------------------------------------------------------------------ *)

type worker = {
  worker : string;
  busy_ns : float;
  steal_ns : float;
  idle_ns : float;
  merge_wait_ns : float;
  wall_ns : float;
  tasks : int;
}

type site = { site : string; hits : int; misses : int }

type disk = {
  result_hits : int;
  result_misses : int;
  result_stores : int;
  matrix_served_warm : int;
}

type t = { pool : worker list; result_cache : site list; disk_cache : disk }

let counter_cell = function Some (Metrics.Counter c) -> c | _ -> 0

(* Labels of other metric families share the registry, so rows with
   neither wall time nor tasks are dropped. *)
let pool () =
  label_table
    [ "par.pool.busy_ns"; "par.pool.steal_ns"; "par.pool.idle_ns";
      "par.pool.merge_wait_ns"; "par.pool.wall_ns"; "par.pool.tasks" ]
  |> List.filter_map (fun (worker, values) ->
         match List.map counter_cell values with
         | [ b; s; i; m; w; t ] when w > 0 || t > 0 ->
           let f = float_of_int in
           Some
             { worker; busy_ns = f b; steal_ns = f s; idle_ns = f i;
               merge_wait_ns = f m; wall_ns = f w; tasks = t }
         | _ -> None)
  |> List.sort (fun a b ->
         let num u =
           try int_of_string (String.sub u.worker 1 (String.length u.worker - 1))
           with _ -> max_int
         in
         compare (num a) (num b))

let result_cache () =
  label_table [ "executor.result_cache.hits"; "executor.result_cache.misses" ]
  |> List.filter_map (fun (site, values) ->
         match List.map counter_cell values with
         | [ hits; misses ] when hits + misses > 0 -> Some { site; hits; misses }
         | _ -> None)

let snapshot () =
  let c = Metrics.counter_total in
  { pool = pool ();
    result_cache = result_cache ();
    disk_cache =
      { result_hits = c "executor.result_cache.disk_hits";
        result_misses = c "executor.result_cache.disk_misses";
        result_stores = c "executor.result_cache.disk_stores";
        matrix_served_warm = c "compress.matrix.disk_served" } }

let pct part whole = if whole <= 0.0 then 0.0 else 100.0 *. part /. whole

let worker_json u =
  Json.Obj
    [ ("worker", Json.String u.worker);
      ("busy_ns", Json.Float u.busy_ns);
      ("steal_ns", Json.Float u.steal_ns);
      ("idle_ns", Json.Float u.idle_ns);
      ("merge_wait_ns", Json.Float u.merge_wait_ns);
      ("wall_ns", Json.Float u.wall_ns);
      ("tasks", Json.Int u.tasks);
      ("busy_share", Json.Float (pct u.busy_ns u.wall_ns /. 100.0)) ]

let to_json t =
  let d = t.disk_cache in
  Json.Obj
    [ ("profile", Profile.to_json ());
      ("pool", Json.List (List.map worker_json t.pool));
      ( "result_cache",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [ ("site", Json.String s.site);
                   ("hits", Json.Int s.hits);
                   ("misses", Json.Int s.misses) ])
             t.result_cache) );
      ( "disk_cache",
        Json.Obj
          [ ("result_hits", Json.Int d.result_hits);
            ("result_misses", Json.Int d.result_misses);
            ("result_stores", Json.Int d.result_stores);
            ("matrix_served_warm", Json.Int d.matrix_served_warm) ] );
      ("metrics", metrics_json ()) ]

(* Below this the busy/steal/idle shares are quotients of measurement
   noise: the jobs=1 inline path runs tasks on the caller with
   essentially no tracked wall, and 100%/0% splits there mislead. *)
let wall_noise_ns = 1e4

let pp ?(by_domain = false) fmt t =
  Profile.pp fmt ();
  if by_domain then
    List.iter
      (fun (dom, rows) ->
        Format.fprintf fmt "@.domain %d:@." dom;
        List.iter
          (fun (r : Profile.row) ->
            Format.fprintf fmt "  %-40s %7dx self %9.2fms total %9.2fms@." r.name
              r.count (Clock.ns_to_ms r.self_ns) (Clock.ns_to_ms r.total_ns))
          rows)
      (Profile.rows_by_domain ());
  Format.pp_print_newline fmt ();
  if t.result_cache <> [] then
    Format.fprintf fmt "result cache by site (hits/lookups): %s@."
      (String.concat " | "
         (List.map
            (fun s ->
              let lookups = s.hits + s.misses in
              Printf.sprintf "%s %d/%d (%.0f%%)" s.site s.hits lookups
                (pct (float_of_int s.hits) (float_of_int lookups)))
            t.result_cache));
  let d = t.disk_cache in
  if d.result_hits + d.result_misses + d.result_stores + d.matrix_served_warm > 0 then
    Format.fprintf fmt
      "disk cache: results %d hit / %d miss / %d stored | matrix %d edge(s) served \
       warm@."
      d.result_hits d.result_misses d.result_stores d.matrix_served_warm;
  match t.pool with
  | [] -> Format.fprintf fmt "pool: no parallel maps recorded (run with --jobs 2+)@."
  | rows ->
    List.iter
      (fun u ->
        if u.wall_ns < wall_noise_ns then
          Format.fprintf fmt
            "pool %-4s utilization n/a (inline execution, wall ~0) | %5d tasks@." u.worker
            u.tasks
        else
          Format.fprintf fmt
            "pool %-4s busy %5.1f%% | steal %4.1f%% | idle %5.1f%% | merge %4.1f%% | %5d \
             tasks | wall %.2fs@."
            u.worker (pct u.busy_ns u.wall_ns) (pct u.steal_ns u.wall_ns)
            (pct u.idle_ns u.wall_ns)
            (pct u.merge_wait_ns u.wall_ns)
            u.tasks (u.wall_ns /. 1e9))
      rows
