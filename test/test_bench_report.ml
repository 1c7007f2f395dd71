(* Bench_report: the committed-report format, the 5% baseline gate (both
   directions), absolute limits, and picking gated names from perfbench. *)

module Report = Cxlshm_bench_util.Bench_report

let m = Report.metric

let report metrics = { Report.report = "demo"; metrics }

let fails f = match f () with () -> false | exception Failure _ -> true

let test_round_trip () =
  let r =
    report
      [
        m ~gated:true "a.ns_p99" 1596.3531674512442 ~unit:"ns" Lower;
        m ~limit:25.0 "b.reduction_pct" 25.133838383838373 ~unit:"%" Higher;
        m ~gated:true ~limit:0.125 "c.fences" 0.0625 ~unit:"count" Lower;
        m "d.tiny" 1e-9 ~unit:"s" Higher;
        m "e.negative" (-3.5) ~unit:"x" Lower;
        m "f.zero" 0.0 ~unit:"count" Lower;
      ]
  in
  let path = Filename.temp_file "bench_report" ".json" in
  Report.write path r;
  let back = Report.read path in
  Alcotest.(check string) "report name" r.report back.report;
  Alcotest.(check int) "metric count" (List.length r.metrics)
    (List.length back.metrics);
  List.iter2
    (fun (a : Report.metric) (b : Report.metric) ->
      Alcotest.(check string) "name" a.name b.name;
      Alcotest.(check bool) (a.name ^ " value bit-exact") true
        (Int64.equal (Int64.bits_of_float a.value) (Int64.bits_of_float b.value));
      Alcotest.(check string) "unit" a.unit b.unit;
      Alcotest.(check bool) "better" true (a.better = b.better);
      Alcotest.(check bool) "gated" a.gated b.gated;
      Alcotest.(check (option (float 0.0))) "limit" a.limit b.limit)
    r.metrics back.metrics;
  let oc = open_out path in
  output_string oc "{\"report\": \"x\"}";
  close_out oc;
  Alcotest.(check bool) "malformed input rejected" true
    (fails (fun () -> ignore (Report.read path)));
  Sys.remove path

(* One gated metric at baseline 100, moved by [pct] percent. *)
let gate_moved better pct =
  let one v = report [ m ~gated:true "x" v ~unit:"ns" better ] in
  fails (fun () ->
      Report.gate ~baseline:(one 100.0) (one (100.0 *. (1.0 +. (pct /. 100.0)))))

let test_gate_budget () =
  (* Lower is better: up is a regression, down a stale baseline *)
  Alcotest.(check bool) "lower +4.9% passes" false (gate_moved Lower 4.9);
  Alcotest.(check bool) "lower +5.1% fails" true (gate_moved Lower 5.1);
  Alcotest.(check bool) "lower -4.9% passes" false (gate_moved Lower (-4.9));
  Alcotest.(check bool) "lower -5.1% stale" true (gate_moved Lower (-5.1));
  (* Higher is better: the mirror image *)
  Alcotest.(check bool) "higher -4.9% passes" false (gate_moved Higher (-4.9));
  Alcotest.(check bool) "higher -5.1% fails" true (gate_moved Higher (-5.1));
  Alcotest.(check bool) "higher +4.9% passes" false (gate_moved Higher 4.9);
  Alcotest.(check bool) "higher +5.1% stale" true (gate_moved Higher 5.1);
  Alcotest.(check bool) "identical passes" false (gate_moved Lower 0.0)

let test_gate_missing () =
  let a = m ~gated:true "a" 1.0 ~unit:"ns" Lower in
  let b = m ~gated:true "b" 1.0 ~unit:"ns" Lower in
  let gate base now = fails (fun () -> Report.gate ~baseline:(report base) (report now)) in
  Alcotest.(check bool) "missing from the fresh report" true (gate [ a; b ] [ a ]);
  Alcotest.(check bool) "missing from the baseline" true (gate [ a ] [ a; b ]);
  Alcotest.(check bool) "ungated on one side" true
    (gate [ a; b ] [ a; { b with gated = false } ]);
  Alcotest.(check bool) "ungated metrics are free to move" false
    (gate
       [ a; m "c" 1.0 ~unit:"ns" Lower ]
       [ a; m "c" 9.0 ~unit:"ns" Lower ]);
  Alcotest.(check bool) "another report's baseline" true
    (fails (fun () ->
         Report.gate ~baseline:{ (report [ a ]) with report = "other" } (report [ a ])))

let test_write_limit () =
  let write ms =
    let path = Filename.temp_file "bench_report" ".json" in
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
        fails (fun () -> Report.write path (report ms)))
  in
  Alcotest.(check bool) "lower at its limit" false
    (write [ m ~limit:5.0 "p" 5.0 ~unit:"%" Lower ]);
  Alcotest.(check bool) "lower over its limit" true
    (write [ m ~limit:5.0 "p" 5.01 ~unit:"%" Lower ]);
  Alcotest.(check bool) "higher under its limit" true
    (write [ m ~limit:25.0 "r" 24.9 ~unit:"%" Higher ]);
  Alcotest.(check bool) "higher over its limit" false
    (write [ m ~limit:25.0 "r" 25.1 ~unit:"%" Higher ])

(* A perfbench result lists every layer name and fills the ones the
   workload never produced with 0, so kv-churn must reject both an
   unknown name and a zero-filled one rather than gate a constant. *)
let test_pick () =
  let reported =
    [ ("kv.get.ns_p99", 1577.0, "ns"); ("rpc.serve_one.ns_p99", 0.0, "ns") ]
  in
  let x = Report.pick reported "kv.get.ns_p99" Lower in
  Alcotest.(check bool) "picked gated" true (x.gated && x.value = 1577.0);
  Alcotest.(check string) "unit carried" "ns" x.unit;
  Alcotest.(check bool) "misspelt name" true
    (fails (fun () -> ignore (Report.pick reported "kv.gett.ns_p99" Lower)));
  Alcotest.(check bool) "zero-filled name" true
    (fails (fun () -> ignore (Report.pick reported "rpc.serve_one.ns_p99" Lower)))

let suite =
  [
    Alcotest.test_case "write/read round trip" `Quick test_round_trip;
    Alcotest.test_case "gate: 5% budget both ways" `Quick test_gate_budget;
    Alcotest.test_case "gate: missing metrics" `Quick test_gate_missing;
    Alcotest.test_case "write: absolute limits" `Quick test_write_limit;
    Alcotest.test_case "pick: unreported names fail" `Quick test_pick;
  ]
