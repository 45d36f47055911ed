(* A timed window cut into equal slices, with the host's steal share
   measured in each.

   Noise from other tenants of the host (hypervisor steal, their CPU
   and I/O) comes and goes within a run, and it only ever adds time. A
   run's figure is therefore taken per slice and reported as the median
   over the quieter half of the slices: those whose steal share is at
   most the median slice's. On a quiet host that is nearly every slice;
   the steal share of the whole window is reported beside it. *)

let count = 10

type t = {
  t0 : float;
  width : float;
  sample : unit -> Procfs.host option;
  marks : Procfs.host option array;  (* host counters at each slice boundary *)
  mutable next : int;  (* the next boundary to record *)
}

let create ?(sample = Procfs.host) ~t0 ~seconds () =
  { t0; width = seconds /. float_of_int count; sample; marks = Array.make (count + 1) None; next = 0 }

(* Records the counters at every boundary up to [now]; call it often
   while the window runs. *)
let tick t now =
  while t.next <= count && now >= t.t0 +. (float_of_int t.next *. t.width) do
    t.marks.(t.next) <- t.sample ();
    t.next <- t.next + 1
  done

(* Records the boundaries not reached yet, when the window's work ended
   early. *)
let finish t =
  while t.next <= count do
    t.marks.(t.next) <- t.sample ();
    t.next <- t.next + 1
  done

let index t time =
  let i = int_of_float (Float.floor ((time -. t.t0) /. t.width)) in
  if i >= 0 && i < count then Some i else None

let steal t i =
  match (t.marks.(i), t.marks.(i + 1)) with
  | Some a, Some b when b.Procfs.total > a.Procfs.total ->
      float_of_int (b.Procfs.steal - a.Procfs.steal) /. float_of_int (b.Procfs.total - a.Procfs.total)
  | _ -> 0.

let quiet t =
  let shares = List.init count (steal t) in
  let m = Stats.median shares in
  List.filter (fun i -> steal t i <= m) (List.init count Fun.id)

(* [f] of the samples ([(time, value)]) in each quiet slice that has
   any, then the median over those slices. *)
let figure t samples f =
  let buckets = Array.make count [] in
  List.iter
    (fun (time, v) -> match index t time with Some i -> buckets.(i) <- v :: buckets.(i) | None -> ())
    samples;
  match List.filter_map (fun i -> match buckets.(i) with [] -> None | l -> Some (f l)) (quiet t) with
  | [] -> nan
  | l -> Stats.median l

(* Events per second: the median over quiet slices of each slice's
   count of [times] over its width. *)
let rate t times =
  let counts = Array.make count 0 in
  List.iter (fun time -> match index t time with Some i -> counts.(i) <- counts.(i) + 1 | None -> ()) times;
  Stats.median (List.map (fun i -> float_of_int counts.(i) /. t.width) (quiet t))

type summary = {
  n : int;
  p50 : float;  (* median over quiet slices of each slice's median *)
  p90 : float;  (* likewise for the 90th percentile *)
  p99 : float;  (* over all samples: too few per slice *)
  beyond_p99 : int;  (* samples ranked above the p99 sample *)
}

let summarize t samples =
  let values = List.map snd samples in
  let n = List.length values in
  if n = 0 then { n = 0; p50 = nan; p90 = nan; p99 = nan; beyond_p99 = 0 }
  else
    let r99 = Stats.rank ~q:99. n in
    {
      n;
      p50 = figure t samples Stats.median;
      p90 = figure t samples (Stats.percentile ~q:90.);
      p99 = (Stats.sorted values).(r99 - 1);
      beyond_p99 = n - r99;
    }

let p99_supported s = s.beyond_p99 >= 10
