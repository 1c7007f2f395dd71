(* What one repetition of a workload returns. Modeled figures repeat
   exactly for a seed; wall figures are this repetition's timings. *)

type t = {
  attempted : int;
  failed : int;
  errors : string list;  (** correctness-oracle violations *)
  setup_s : float;
  run_s : float;  (** wall time of the measured phase *)
  check_s : float;  (** wall time of [Shm.validate] *)
  modeled : (string * float) list;  (** modeled end-to-end metrics *)
  layer : (string * float) list;  (** per-layer metrics *)
}

(* Oracle errors, capped so a broken run still prints a short report. *)
type oracle = { mutable errs : string list; mutable nerrs : int }

let oracle () = { errs = []; nerrs = 0 }

let fail o fmt =
  Printf.ksprintf
    (fun s ->
      o.nerrs <- o.nerrs + 1;
      if o.nerrs <= 20 then o.errs <- s :: o.errs)
    fmt

let errors o =
  let l = List.rev o.errs in
  if o.nerrs > 20 then l @ [ Printf.sprintf "... %d more" (o.nerrs - 20) ]
  else l

(* The timed public calls reported per layer. [Shm.validate] is timed too
   but reads through unsafe peeks and charges no client, so its cost is
   the wall-clock [check_s] and it has no per-call row. *)
let timed_calls =
  [
    "kv.get"; "kv.put_cow"; "kv.put"; "kv.rmw"; "kv.quiesce";
    "kv.takeover_partition"; "kv.adopt_recovered"; "kv.handoff_deferred";
    "kv.adopt_deferred"; "client.heartbeat"; "monitor.check_once";
    "monitor.recover_suspects"; "rpc.alloc_arg"; "rpc.call_async";
    "rpc.serve_one"; "rpc.finish";
  ]

let call_fields = [ "calls"; "ns_mean"; "ns_p99"; "words"; "fences"; "flushes" ]

let self_layers = [ "kv"; "core"; "rpc"; "queue" ]

let hist_ops =
  Cxlshm_shmem.Histogram.
    [ Alloc_small; Refc_attach; Refc_detach; Transfer_send; Transfer_recv;
      Recovery_scan ]

(* Every per-layer metric, in report order. A workload that does not
   exercise a layer reports zero for it. *)
let layer_names =
  List.concat_map
    (fun c -> List.map (fun f -> c ^ "." ^ f) call_fields)
    timed_calls
  @ [
      "queue.read_wait_ns_p99"; "queue.write_wait_ns_p99";
      "failover.detect_us_p50"; "failover.recover_us_p50";
      "failover.drain_us_p50"; "failover.total_us_p50";
      "rpc.server_busy_frac"; "rpc.queue_wait_ns_p99"; "rpc.kops";
      "shmem.cache_hit_ratio"; "shmem.cas_success_ratio";
      "kv.deferred_left"; "kv.read_p99_ns"; "kv.write_p99_ns";
      "kv.churn_p99_ns"; "kv.space_amp";
    ]
  @ List.map
      (fun op -> Cxlshm_shmem.Histogram.op_name op ^ ".ns_mean")
      hist_ops
  @ List.map (fun l -> "self." ^ l ^ ".ns_per_op") self_layers
  @ [ "trace.overhead_frac"; "wall.kops"; "wall.check_s" ]

let layer_of name =
  match String.index_opt name '.' with
  | None -> name
  | Some i -> (
      match String.sub name 0 i with
      | "kv" -> "kv"
      | "rpc" -> "rpc"
      | "op" | "call" -> "queue"
      | _ -> "core")

(* Per-call metrics: count, modeled ns mean/p99, and words, fences and
   flushes per call. *)
let call_metrics (m : Meter.t) =
  List.concat_map
    (fun name ->
      let c = Hashtbl.find_opt m.Meter.calls name in
      let n, ns, w, f, fl =
        match c with
        | None -> (0, [||], 0, 0, 0)
        | Some c ->
            (c.Meter.n, Meter.Samples.to_array c.Meter.ns, c.Meter.c_words,
             c.Meter.c_fences, c.Meter.c_flushes)
      in
      let per x = if n = 0 then 0.0 else float_of_int x /. float_of_int n in
      [
        (name ^ ".calls", float_of_int n);
        (name ^ ".ns_mean", Meter.mean ns);
        (name ^ ".ns_p99", Meter.quantile ns 0.99);
        (name ^ ".words", per w);
        (name ^ ".fences", per f);
        (name ^ ".flushes", per fl);
      ])
    timed_calls

(* Shared-memory waste ratios over every timed call. *)
let shmem_metrics (m : Meter.t) =
  let t = Meter.totals m in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let cas = t.(Meter.c_cas) + t.(Meter.c_cas_hit) in
  [
    ("shmem.cache_hit_ratio", ratio t.(Meter.c_hits) (Meter.words t));
    ("shmem.cas_success_ratio", ratio (cas - t.(Meter.c_cas_fail)) cas);
  ]

(* Mean modeled ns of the library's own Trace histograms (traced run). *)
let hist_metrics (m : Meter.t) =
  let module H = Cxlshm_shmem.Histogram in
  let h = Meter.hists m in
  List.map
    (fun op -> (H.op_name op ^ ".ns_mean", H.mean_ns h.(H.op_index op)))
    hist_ops

(* Self time per layer, per op. *)
let self_metrics (m : Meter.t) ~ops =
  let self = Meter.self_ns m ~layer_of in
  List.map
    (fun l -> ("self." ^ l ^ ".ns_per_op", self l /. float_of_int (max 1 ops)))
    self_layers

(* [Shm.validate] and its wall time. *)
let validate arena =
  let w0 = Meter.wall () in
  let v = Cxlshm.Shm.validate arena in
  (v, Meter.wall () -. w0)
