let on = ref false
let set_enabled b = on := b
let enabled () = !on

(* Counters and gauges are single atomics: parallel workers bump them
   lock-free and the totals are exact. Histograms mutate several fields
   per sample, so each carries its own mutex; the registry itself is
   mutexed too (registration is rare — instruments are interned once and
   cached by the call sites). *)
type counter = int Atomic.t
type gauge = float Atomic.t

(* Power-of-two buckets: bucket [i] counts samples in [2^(i-1), 2^i).
   64 buckets cover anything from sub-nanosecond to ~9e18, so latencies
   in nanoseconds never clip in practice. *)
let n_buckets = 64

type histogram = {
  lock : Mutex.t;
  mutable count : int;
  mutable sum : float;
  mutable lo : float;
  mutable hi : float;
  buckets : int array;
}

type instrument =
  | C of counter
  | G of gauge
  | H of histogram

let registry : (string * string option, instrument) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let register key mk extract =
  Mutex.protect registry_lock @@ fun () ->
  match Hashtbl.find_opt registry key with
  | Some i -> extract i
  | None ->
    let v = mk () in
    Hashtbl.replace registry key v;
    extract v

let wrong_kind (name, _) = invalid_arg ("metric registered with another kind: " ^ name)

let counter ?label name =
  let key = (name, label) in
  register key
    (fun () -> C (Atomic.make 0))
    (function C c -> c | _ -> wrong_kind key)

let gauge ?label name =
  let key = (name, label) in
  register key
    (fun () -> G (Atomic.make 0.0))
    (function G g -> g | _ -> wrong_kind key)

let fresh_hist () =
  { lock = Mutex.create ();
    count = 0;
    sum = 0.0;
    lo = Float.infinity;
    hi = Float.neg_infinity;
    buckets = Array.make n_buckets 0 }

let histogram ?label name =
  let key = (name, label) in
  register key
    (fun () -> H (fresh_hist ()))
    (function H h -> h | _ -> wrong_kind key)

(* ------------------------------------------------------------------ *)
(* Hot path                                                            *)
(* ------------------------------------------------------------------ *)

let incr c = if !on then Atomic.incr c
let add c n = if !on then ignore (Atomic.fetch_and_add c n)
let gauge_set g v = if !on then Atomic.set g v

let gauge_max g v =
  if !on then begin
    let rec loop () =
      let cur = Atomic.get g in
      if v > cur && not (Atomic.compare_and_set g cur v) then loop ()
    in
    loop ()
  end

let bucket_of v =
  if v < 1.0 then 0
  else
    let b = 1 + int_of_float (Float.log2 v) in
    if b >= n_buckets then n_buckets - 1 else b

let observe h v =
  if !on then begin
    Mutex.protect h.lock @@ fun () ->
    h.count <- h.count + 1;
    h.sum <- h.sum +. v;
    if v < h.lo then h.lo <- v;
    if v > h.hi then h.hi <- v;
    let b = bucket_of v in
    h.buckets.(b) <- h.buckets.(b) + 1
  end

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

let counter_value c = Atomic.get c
let gauge_value g = Atomic.get g

type hist_snapshot = { count : int; sum : float; min : float; max : float }

let hist_snapshot (h : histogram) =
  Mutex.protect h.lock @@ fun () ->
  { count = h.count; sum = h.sum; min = h.lo; max = h.hi }

let hist_mean (h : histogram) =
  let s = hist_snapshot h in
  if s.count = 0 then 0.0 else s.sum /. float_of_int s.count

let bucket_quantile buckets ~count ~lo ~hi q =
  if count = 0 then 0.0
  else begin
    let rank = q *. float_of_int count in
    let cum = ref 0 in
    let result = ref hi in
    (try
       for b = 0 to n_buckets - 1 do
         cum := !cum + buckets.(b);
         if float_of_int !cum >= rank then begin
           (* Geometric midpoint of [2^(b-1), 2^b), clamped to samples. *)
           let mid = if b = 0 then 0.5 else Float.pow 2.0 (float_of_int b -. 0.5) in
           result := Float.min hi (Float.max lo mid);
           raise Exit
         end
       done
     with Exit -> ());
    !result
  end

let hist_quantile (h : histogram) q =
  Mutex.protect h.lock @@ fun () ->
  bucket_quantile h.buckets ~count:h.count ~lo:h.lo ~hi:h.hi q

type value =
  | Counter of int
  | Gauge of float
  | Histogram of hist_snapshot

let snapshot () =
  let entries =
    Mutex.protect registry_lock @@ fun () ->
    Hashtbl.fold (fun key i acc -> (key, i) :: acc) registry []
  in
  List.map
    (fun ((name, label), i) ->
      let v =
        match i with
        | C c -> Counter (Atomic.get c)
        | G g -> Gauge (Atomic.get g)
        | H h -> Histogram (hist_snapshot h)
      in
      (name, label, v))
    entries
  |> List.sort (fun (n1, l1, _) (n2, l2, _) -> compare (n1, l1) (n2, l2))

let find ?label name =
  let inst =
    Mutex.protect registry_lock @@ fun () ->
    Hashtbl.find_opt registry (name, label)
  in
  match inst with
  | Some (C c) -> Some (Counter (Atomic.get c))
  | Some (G g) -> Some (Gauge (Atomic.get g))
  | Some (H h) -> Some (Histogram (hist_snapshot h))
  | None -> None

let counter_total ?label name =
  match find ?label name with Some (Counter c) -> c | _ -> 0

let reset () =
  Mutex.protect registry_lock @@ fun () ->
  Hashtbl.iter
    (fun _ i ->
      match i with
      | C c -> Atomic.set c 0
      | G g -> Atomic.set g 0.0
      | H h ->
        Mutex.protect h.lock @@ fun () ->
        h.count <- 0;
        h.sum <- 0.0;
        h.lo <- Float.infinity;
        h.hi <- Float.neg_infinity;
        Array.fill h.buckets 0 n_buckets 0)
    registry

let clear () =
  Mutex.protect registry_lock @@ fun () -> Hashtbl.reset registry
