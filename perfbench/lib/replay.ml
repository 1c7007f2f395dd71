(* Highest offered rate that meets the SLO, by replaying recorded service
   times. The SLO: for every op class, the mean of its slowest 1% is at
   most 20 µs, and the achieved rate is at least 99% of the offered one. Modeled service costs do not depend on arrival times, so one
   run's per-op costs can be re-queued at any offered rate.

   Each op passes through its stages in order; a stage waits for its
   resource (one simulated core), which serves in order of readiness. The
   resource of an op's first stage is its origin: the origin sends its
   next op only when the previous one has finished every stage (one
   outstanding request per client). Background work (heartbeats, monitor
   passes) is not replayed. *)

type op = {
  arr : float;  (** arrival at the recorded run's rate, modeled ns *)
  cls : int;
  stages : (int * float) array;  (** (resource, service ns) *)
  lat_stages : int;  (** latency ends when this many stages are done *)
}

(* The probe: one fixed Poisson arrival stream at 1 Mop/s, the same for
   every seed and every commit (common random numbers), so max-rate
   differences come from service times, not from arrival luck. *)
let probe ~n = Inputs.arrivals (Random.State.make [| 0x5eed |]) ~n ~rate_mops:1.0

let slo_ns = 20_000.0
let min_achieved = 0.99

(* The rate grid: 0.1% geometric steps from 1 kops. *)
let grid k = 0.001 *. (1.001 ** float_of_int k)

(* Min-heap of (time, op, stage) events. *)
module Heap = struct
  type t = { mutable a : (float * int * int) array; mutable n : int }

  let create () = { a = Array.make 1024 (0.0, 0, 0); n = 0 }

  let lt ((t1, i1, k1) : float * int * int) (t2, i2, k2) =
    t1 < t2 || (t1 = t2 && (i1 < i2 || (i1 = i2 && k1 < k2)))

  let push h x =
    if h.n = Array.length h.a then begin
      let b = Array.make (2 * h.n) x in
      Array.blit h.a 0 b 0 h.n;
      h.a <- b
    end;
    let a = h.a in
    let i = ref h.n in
    h.n <- h.n + 1;
    while !i > 0 && lt x a.((!i - 1) / 2) do
      a.(!i) <- a.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    a.(!i) <- x

  let pop h =
    let a = h.a in
    let top = a.(0) in
    h.n <- h.n - 1;
    let x = a.(h.n) in
    let i = ref 0 and fin = ref false in
    while not !fin do
      let l = (2 * !i) + 1 in
      if l >= h.n then fin := true
      else begin
        let c = if l + 1 < h.n && lt a.(l + 1) a.(l) then l + 1 else l in
        if lt a.(c) x then begin
          a.(!i) <- a.(c);
          i := c
        end
        else fin := true
      end
    done;
    a.(!i) <- x;
    top
end

let meets ops ~nres ~ncls ~scale =
  let n = Array.length ops in
  let arr i = ops.(i).arr *. scale in
  (* each origin's ops, in arrival order *)
  let queue = Array.make nres [] in
  for i = n - 1 downto 0 do
    let r = fst ops.(i).stages.(0) in
    queue.(r) <- i :: queue.(r)
  done;
  let free = Array.make nres 0.0 in
  let lat = Array.init ncls (fun _ -> Meter.Samples.create ()) in
  let h = Heap.create () in
  let send r ~after =
    match queue.(r) with
    | [] -> ()
    | i :: rest ->
        queue.(r) <- rest;
        Heap.push h (Float.max (arr i) after, i, 0)
  in
  for r = 0 to nres - 1 do
    send r ~after:0.0
  done;
  let last = ref 0.0 in
  while h.Heap.n > 0 do
    let t, i, k = Heap.pop h in
    let o = ops.(i) in
    let r, s = o.stages.(k) in
    let fin = Float.max t free.(r) +. s in
    free.(r) <- fin;
    if k + 1 = o.lat_stages then Meter.Samples.add lat.(o.cls) (fin -. arr i);
    if k + 1 < Array.length o.stages then Heap.push h (fin, i, k + 1)
    else begin
      if fin > !last then last := fin;
      send (fst o.stages.(0)) ~after:fin
    end
  done;
  let first = arr 0 and last_arr = arr (n - 1) in
  let achieved = (last_arr -. first) /. Float.max 1e-9 (!last -. first) in
  achieved >= min_achieved
  && Array.for_all
       (fun s ->
         Meter.Samples.length s = 0
         || Meter.tail_mean (Meter.Samples.to_array s) 0.99 <= slo_ns)
       lat

(* [ops] sorted by arrival, recorded at [rate_mops]. Bisects the grid for
   the highest passing point. *)
let max_rate_mops ops ~rate_mops ~nres ~ncls =
  if Array.length ops = 0 then 0.0
  else begin
    let pass k = meets ops ~nres ~ncls ~scale:(rate_mops /. grid k) in
    (* grid point 16,000 is ~8.9e3 Mops, far past any core *)
    let lo = ref 0 and hi = ref 16_000 in
    if not (pass !lo) then 0.0
    else begin
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if pass mid then lo := mid else hi := mid
      done;
      grid !lo
    end
  end
