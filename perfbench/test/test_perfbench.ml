(* The benchmark's own checks, on small configurations: every repetition
   passes the correctness oracle and the layer-sum invariant, one seed
   repeats its modeled figures exactly, and tracing changes no modeled
   figure. *)

open Perfbench

let churn =
  {
    Kv_work.write_churn with
    Kv_work.keys = 4_000;
    ops = 30_000;
    crashes = 4;
  }

let hot = { Kv_work.read_hot with Kv_work.keys = 2_000; ops = 20_000 }
let fanin = { Rpc_work.clients = 4; rounds = 200 }

let runs =
  [
    ("kv-read-hot", fun ~tracing -> Kv_work.run ~seed:7 ~tracing ~full:true hot);
    ("kv-write-churn", fun ~tracing -> Kv_work.run ~seed:7 ~tracing ~full:true churn);
    ("rpc-fanin", fun ~tracing -> Rpc_work.run ~seed:7 ~tracing ~full:true fanin);
  ]

let no_errors (r : Work.t) =
  Alcotest.(check (list string)) "oracle and layer sum" [] r.Work.errors;
  Alcotest.(check int) "no failed op" 0 r.Work.failed

let layer_sum run () =
  let r, m = run ~tracing:false in
  no_errors r;
  let calls_ns, errs = Meter.check_sum m in
  Alcotest.(check (list string)) "every counter booked" [] errs;
  let ctx_ns =
    List.fold_left
      (fun acc ep ->
        acc
        +. Cxlshm_shmem.Stats.modeled_ns m.Meter.model ep.Meter.ctx.Cxlshm.Ctx.st
        -. ep.Meter.base_ns)
      0.0 m.Meter.eps
  in
  Alcotest.(check (float (1e-9 *. ctx_ns))) "timed calls sum to client ns" ctx_ns
    calls_ns

let deterministic run () =
  let a, _ = run ~tracing:false in
  let b, _ = run ~tracing:false in
  no_errors b;
  Alcotest.(check (list (pair string (float 0.0)))) "modeled" a.Work.modeled
    b.Work.modeled;
  Alcotest.(check (list (pair string (float 0.0)))) "per layer" a.Work.layer
    b.Work.layer

let trace_neutral run () =
  let plain, _ = run ~tracing:false in
  let traced, m = run ~tracing:true in
  no_errors traced;
  Alcotest.(check (list (pair string (float 0.0)))) "modeled" plain.Work.modeled
    traced.Work.modeled;
  List.iter
    (fun (n, v) ->
      Alcotest.(check (float 0.0)) n v (List.assoc n traced.Work.layer))
    plain.Work.layer;
  Alcotest.(check bool) "spans recorded" true (m.Meter.spans <> [])

(* One core with a fixed 1 µs service: capacity 1 Mop/s. A finite run
   can be offered slightly more before its backlog breaks the SLO. *)
let replay_capacity () =
  let ops =
    Array.init 20_000 (fun i ->
        { Replay.arr = float_of_int i *. 500.0; cls = 0;
          stages = [| (0, 1000.0) |]; lat_stages = 1 })
  in
  let r = Replay.max_rate_mops ops ~rate_mops:2.0 ~nres:1 ~ncls:1 in
  Alcotest.(check bool) (Printf.sprintf "0.9 < %g <= 1.01" r) true
    (r > 0.9 && r <= 1.01)

let () =
  Alcotest.run "perfbench"
    [
      ( "layer-sum",
        List.map (fun (n, f) -> Alcotest.test_case n `Quick (layer_sum f)) runs );
      ( "determinism",
        List.map (fun (n, f) -> Alcotest.test_case n `Quick (deterministic f)) runs );
      ( "trace-neutral",
        List.map (fun (n, f) -> Alcotest.test_case n `Quick (trace_neutral f)) runs );
      ("replay", [ Alcotest.test_case "capacity" `Quick replay_capacity ]);
    ]
