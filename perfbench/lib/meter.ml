(* Call timing at the boundary of every layer's public functions.

   Each simulated client is an endpoint: its library context plus the
   modeled clock of the core it runs on ([busy], Table-1 ns). [time] runs
   one public call on an endpoint, prices the shared-memory traffic the call
   charged to the context's Stats (the library's own cost model), advances
   the endpoint's clock by that price and books the call under its name.
   Nothing here touches shared memory, so timing never moves the modeled
   clock. With tracing on it also keeps one span per call in memory. *)

open Cxlshm
module Stats = Cxlshm_shmem.Stats
module Latency = Cxlshm_shmem.Latency

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let length t = t.n
  let to_array t = Array.sub t.a 0 t.n
end

(* Nearest-rank quantile of an unsorted sample; 0 when empty. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) k))
  end

(* Mean of the slowest [1 - q] share of a sample (at least one value): the
   tail a quantile points at, averaged, so it moves smoothly where the
   modeled costs are a few discrete values and a quantile would jump
   between them or repeat one exactly. *)
let tail_mean xs q =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let k = max 1 (int_of_float (Float.ceil ((1.0 -. q) *. float_of_int n))) in
    let sum = ref 0.0 in
    for i = n - k to n - 1 do
      sum := !sum +. s.(i)
    done;
    !sum /. float_of_int k
  end

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

(* The integer counters the cost model prices, plus CAS failures. *)
let ncounters = 8
let c_hits = 0
let c_cas = 3
let c_cas_hit = 4
let c_cas_fail = 5
let c_fences = 6
let c_flushes = 7

let read_into (st : Stats.t) a =
  a.(0) <- st.cache_hits;
  a.(1) <- st.seq_accesses;
  a.(2) <- st.rand_accesses;
  a.(3) <- st.cas_ops;
  a.(4) <- st.cas_hit_ops;
  a.(5) <- st.cas_failures;
  a.(6) <- st.fences;
  a.(7) <- st.flushes

let counters st =
  let a = Array.make ncounters 0 in
  read_into st a;
  a

let words a = a.(0) + a.(1) + a.(2) + a.(3) + a.(4)

type ep = {
  ctx : Ctx.t;
  mutable busy : float;
  base : int array;  (** counters when the endpoint was registered *)
  base_ns : float;
  acc : int array;  (** counters booked to timed calls since *)
  mutable acc_ns : float;
}

type call = {
  mutable n : int;
  ns : Samples.t;
  mutable c_words : int;
  mutable c_fences : int;
  mutable c_flushes : int;
}

type span = {
  id : int;
  parent : int;
  req : int;
  name : string;
  t0 : float;
  t1 : float;
  w0 : float;
  w1 : float;
}

type t = {
  model : Latency.t;
  tracing : bool;
  calls : (string, call) Hashtbl.t;
  mutable eps : ep list;
  mutable spans : span list;
  mutable next_id : int;
  before : int array;
  after : int array;
}

let create ~model ~tracing =
  {
    model;
    tracing;
    calls = Hashtbl.create 32;
    eps = [];
    spans = [];
    next_id = 1;
    before = Array.make ncounters 0;
    after = Array.make ncounters 0;
  }

let wall () = Unix.gettimeofday ()

(* Wall clock for a span, read only when tracing. *)
let now m = if m.tracing then wall () else 0.0

let register m ?(busy = 0.0) ?(fresh = false) (ctx : Ctx.t) =
  let base, base_ns =
    if fresh then (Array.make ncounters 0, 0.0)
    else (counters ctx.Ctx.st, Stats.modeled_ns m.model ctx.Ctx.st)
  in
  if m.tracing then Trace.set ctx true;
  let ep =
    { ctx; busy; base; base_ns; acc = Array.make ncounters 0; acc_ns = 0.0 }
  in
  m.eps <- ep :: m.eps;
  ep

let call_of m name =
  match Hashtbl.find_opt m.calls name with
  | Some c -> c
  | None ->
      let c =
        { n = 0; ns = Samples.create (); c_words = 0; c_fences = 0;
          c_flushes = 0 }
      in
      Hashtbl.replace m.calls name c;
      c

let fresh_id m =
  let id = m.next_id in
  m.next_id <- id + 1;
  id

let add_span m ~id ~parent ~req name ~t0 ~t1 ~w0 ~w1 =
  if m.tracing then
    m.spans <- { id; parent; req; name; t0; t1; w0; w1 } :: m.spans

(* Book [delta] counters / [ns] to the endpoint and the call's totals. *)
let book m ep name ns d =
  for i = 0 to ncounters - 1 do
    ep.acc.(i) <- ep.acc.(i) + d.(i)
  done;
  ep.acc_ns <- ep.acc_ns +. ns;
  let c = call_of m name in
  c.n <- c.n + 1;
  Samples.add c.ns ns;
  c.c_words <- c.c_words + words d;
  c.c_fences <- c.c_fences + d.(c_fences);
  c.c_flushes <- c.c_flushes + d.(c_flushes)

(* Run [f] as one timed call on [ep], starting at the endpoint's clock. A
   call that raises (a client killed at a crash point) is booked with the
   traffic it managed before dying, then the exception is re-raised. *)
let time m ep ?(parent = 0) ?(req = 0) name f =
  let st = ep.ctx.Ctx.st in
  let p = Stats.probe st in
  read_into st m.before;
  let w0 = now m in
  let finish () =
    let ns = Stats.probe_ns m.model st ~since:p in
    read_into st m.after;
    for i = 0 to ncounters - 1 do
      m.after.(i) <- m.after.(i) - m.before.(i)
    done;
    book m ep name ns m.after;
    let t0 = ep.busy in
    ep.busy <- t0 +. ns;
    if m.tracing then
      add_span m ~id:(fresh_id m) ~parent ~req name ~t0 ~t1:ep.busy ~w0
        ~w1:(wall ())
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* [Shm.join] as a timed call: the new context's whole traffic so far is
   the join's, so the endpoint starts from zero counters. *)
let join m arena ?parent ?req ~at () =
  let w0 = wall () in
  let ctx = Shm.join arena () in
  let ep = register m ~busy:at ~fresh:true ctx in
  let ns = Stats.modeled_ns m.model ctx.Ctx.st in
  book m ep "shm.join" ns (counters ctx.Ctx.st);
  ep.busy <- at +. ns;
  if m.tracing then
    add_span m ~id:(fresh_id m) ~parent:(Option.value parent ~default:0)
      ~req:(Option.value req ~default:0) "shm.join" ~t0:at ~t1:ep.busy ~w0
      ~w1:(wall ());
  ep

(* Modeled ns booked to timed calls so far, over every endpoint. *)
let booked_ns m = List.fold_left (fun acc ep -> acc +. ep.acc_ns) 0.0 m.eps

(* Layer-sum invariant: every shared-memory counter an endpoint's context
   accumulated since registration was booked to some timed call, and the
   calls' modeled ns add up to the contexts' modeled ns. Counters must
   agree exactly; the ns sums differ only by float summation order. *)
let check_sum m =
  let errs = ref [] in
  let calls_ns = ref 0.0 and ctx_ns = ref 0.0 in
  List.iter
    (fun ep ->
      let now = counters ep.ctx.Ctx.st in
      for i = 0 to ncounters - 1 do
        if now.(i) - ep.base.(i) <> ep.acc.(i) then
          errs :=
            Printf.sprintf "client %d: counter %d has %d untimed events"
              ep.ctx.Ctx.cid i
              (now.(i) - ep.base.(i) - ep.acc.(i))
            :: !errs
      done;
      calls_ns := !calls_ns +. ep.acc_ns;
      ctx_ns := !ctx_ns +. (Stats.modeled_ns m.model ep.ctx.Ctx.st -. ep.base_ns))
    m.eps;
  if Float.abs (!calls_ns -. !ctx_ns) > 1e-9 *. Float.max 1.0 !ctx_ns then
    errs :=
      Printf.sprintf "timed calls sum to %.3f ns, clients to %.3f ns"
        !calls_ns !ctx_ns
      :: !errs;
  (!calls_ns, List.rev !errs)

(* Shared-memory counters summed over every endpoint's timed calls. *)
let totals m =
  let t = Array.make ncounters 0 in
  List.iter
    (fun ep ->
      for i = 0 to ncounters - 1 do
        t.(i) <- t.(i) + ep.acc.(i)
      done)
    m.eps;
  t

(* The library's own per-op histograms, merged over every endpoint. *)
let hists m =
  let into = Cxlshm_shmem.Histogram.create_set () in
  List.iter
    (fun ep -> Cxlshm_shmem.Histogram.merge_set ~into ep.ctx.Ctx.hists)
    m.eps;
  into

let write_spans m path =
  let oc = open_out path in
  Printf.fprintf oc "id\tparent\treq\tname\tt0_ns\tt1_ns\tw0_s\tw1_s\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%.3f\t%.3f\t%.9f\t%.9f\n" s.id
        s.parent s.req s.name s.t0 s.t1 s.w0 s.w1)
    (List.rev m.spans);
  close_out oc

(* Self time per layer: a span's duration minus the part of its interval
   its child spans cover. Children may run on other clients (a monitor pass
   causes a successor's takeover), so they are clipped to the parent and
   their union is taken. *)
let self_ns m ~layer_of =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace children s.parent
          ((s.t0, s.t1)
          :: Option.value (Hashtbl.find_opt children s.parent) ~default:[]))
    m.spans;
  let covered s =
    let iv =
      Option.value (Hashtbl.find_opt children s.id) ~default:[]
      |> List.map (fun (a, b) -> (Float.max a s.t0, Float.min b s.t1))
      |> List.filter (fun (a, b) -> b > a)
      |> List.sort compare
    in
    fst
      (List.fold_left
         (fun (total, last) (a, b) ->
           let a = Float.max a last in
           if b > a then (total +. (b -. a), b) else (total, last))
         (0.0, Float.neg_infinity) iv)
  in
  let by_layer = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let l = layer_of s.name in
      Hashtbl.replace by_layer l
        (Option.value (Hashtbl.find_opt by_layer l) ~default:0.0
        +. (s.t1 -. s.t0 -. covered s)))
    m.spans;
  fun l -> Option.value (Hashtbl.find_opt by_layer l) ~default:0.0
