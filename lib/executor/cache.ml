module PTbl = Optimizer.Physical.Tbl

(* Execution results keyed by the structural fingerprint of the physical
   plan. The store is per-domain (Domain.DLS), matching the [lib/par]
   discipline: no locks on the hot path, no cross-domain sharing of the
   mutable table, and — because hits and misses never leak into any
   reported count — [--jobs N] output stays byte-identical to [--jobs 1]
   even though each domain warms its own cache. Callers that report
   execution totals must count *logical* executions (increment whether
   or not the run was served from cache).

   Plans from different catalogs may collide structurally, so the store
   remembers which catalog filled it and resets on (physical) catalog
   change; tests and multi-catalog tools get isolation for free.

   Below the per-domain memory tier sits an optional shared disk tier
   ([set_disk]): misses consult a [Storage.Diskcache] entry keyed by the
   caller-supplied catalog key plus the plan fingerprint, and computed
   results are written back. Entries store the full plan alongside the
   result and are only served on structural [Physical.equal] — a
   fingerprint (or filename) collision degrades to a miss, never to a
   wrong result. The disk tier is configured once at startup, before
   any worker domains spawn. *)

type store = {
  mutable catalog : Storage.Catalog.t option;
  tbl : (Resultset.t, string) result PTbl.t;
}

let key =
  Domain.DLS.new_key (fun () -> { catalog = None; tbl = PTbl.create 256 })

let hits_c = Obs.Metrics.counter "executor.result_cache.hits"
let miss_c = Obs.Metrics.counter "executor.result_cache.misses"
let disk_hit_c = Obs.Metrics.counter "executor.result_cache.disk_hits"
let disk_miss_c = Obs.Metrics.counter "executor.result_cache.disk_misses"
let disk_store_c = Obs.Metrics.counter "executor.result_cache.disk_stores"

(* Per-site attribution: the same totals, additionally keyed by which
   caller asked (validate vs triage-oracle vs replay ...), so `qtr
   stats`/`qtr validate --json` can say who benefits from the cache and
   who only fills it. Sites are a small closed set of short strings, so the
   labeled-counter registry stays tiny. *)
let site_hit site = Obs.Metrics.counter ~label:site "executor.result_cache.hits"
let site_miss site = Obs.Metrics.counter ~label:site "executor.result_cache.misses"

(* Safety valve against unbounded growth in very long sessions; far
   above what a validate or reduce run touches. *)
let max_entries = 8192

let disk_ns = "results"

(* Written once during CLI startup, read by every domain afterwards: an
   immutable option behind a plain reference is race-free for that
   pattern. *)
let disk : (Storage.Diskcache.t * string) option ref = ref None
let set_disk d = disk := d

let disk_key catkey plan =
  Printf.sprintf "%s/%x" catkey (Optimizer.Physical.fingerprint plan)

let disk_load plan =
  match !disk with
  | None -> None
  | Some (dc, catkey) -> (
    Obs.Trace.with_span "cache.disk.load" @@ fun () ->
    match
      (Storage.Diskcache.load dc ~ns:disk_ns ~key:(disk_key catkey plan)
        : (Optimizer.Physical.t * (Resultset.t, string) result) option)
    with
    | Some (stored_plan, r) when Optimizer.Physical.equal stored_plan plan ->
      Obs.Metrics.incr disk_hit_c;
      Some r
    | Some _ | None ->
      Obs.Metrics.incr disk_miss_c;
      None)

let disk_store plan r =
  match !disk with
  | None -> ()
  | Some (dc, catkey) ->
    Obs.Trace.with_span "cache.disk.store" @@ fun () ->
    if Storage.Diskcache.store dc ~ns:disk_ns ~key:(disk_key catkey plan) (plan, r)
    then Obs.Metrics.incr disk_store_c

let run ?(site = "adhoc") catalog plan =
  let s = Domain.DLS.get key in
  (match s.catalog with
  | Some c when c == catalog -> ()
  | _ ->
    PTbl.reset s.tbl;
    s.catalog <- Some catalog);
  match PTbl.find_opt s.tbl plan with
  | Some r ->
    Obs.Metrics.incr hits_c;
    Obs.Metrics.incr (site_hit site);
    r
  | None ->
    Obs.Metrics.incr miss_c;
    Obs.Metrics.incr (site_miss site);
    let r, from_disk =
      match disk_load plan with
      | Some r -> (r, true)
      | None -> (Exec.run catalog plan, false)
    in
    (* Pre-sort on the owning domain so a cached result handed to later
       bag comparisons is already normalized (and never mutated by a
       reader on another domain). *)
    (match r with
    | Ok rs -> ignore (Resultset.normalized rs)
    | Error _ -> ());
    if not from_disk then disk_store plan r;
    if PTbl.length s.tbl >= max_entries then PTbl.reset s.tbl;
    PTbl.add s.tbl plan r;
    r

let clear () =
  let s = Domain.DLS.get key in
  PTbl.reset s.tbl;
  s.catalog <- None
