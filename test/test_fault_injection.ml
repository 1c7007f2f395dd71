(* §6.2.2 crash-consistency validation: run a randomized multi-client
   workload with a crash injected at every reachable critical point, then
   recover and check the arena for leaks, double frees and wild pointers. *)

open Cxlshm
module Soak = Cxlshm_check.Soak
module Drills = Cxlshm_check.Drills

(* A deterministic run of the soak workload ({!Soak.step}) on the quiet
   flat backend. Returns when [steps] operations ran or a client crashed. *)
let run_workload ~seed ~steps ~(plan : int -> Fault.plan) =
  let arena = Shm.create ~cfg:Config.small () in
  let n_clients = 3 in
  let clients = Array.init n_clients (fun _ -> Shm.join arena ()) in
  Array.iteri (fun i c -> c.Ctx.fault <- plan i) clients;
  let st = Soak.workload ~rng:(Random.State.make [| seed |]) clients in
  let crashed = ref None in
  (try
     for s = 0 to steps - 1 do
       (* Every shared-memory effect in a step belongs to the stepping
          client, so a Crashed exception identifies it. *)
       try Soak.step st (s mod n_clients)
       with Fault.Crashed p -> raise (Fault.Crashed (Printf.sprintf "%d:%s" (s mod n_clients) p))
     done
   with Fault.Crashed tagged ->
     let who = int_of_string (List.hd (String.split_on_char ':' tagged)) in
     crashed := Some who);
  (arena, clients, Array.init n_clients (Soak.held st), !crashed)

let finish_and_validate ~label (arena, clients, held, crashed) =
  let svc = Shm.service_ctx arena in
  (match crashed with
  | Some who ->
      Client.declare_failed svc ~cid:clients.(who).Ctx.cid;
      ignore (Recovery.recover svc ~failed_cid:clients.(who).Ctx.cid)
  | None -> ());
  (* Survivors exit cleanly: drop everything they hold. *)
  Array.iteri
    (fun i c ->
      if crashed <> Some i then begin
        c.Ctx.fault <- Fault.none;
        List.iter (fun r -> if Cxl_ref.is_live r then Cxl_ref.drop r) held.(i)
      end)
    clients;
  (* Declare everyone else dead too so queue endpoints get reaped; this
     models the end of the run, not additional crashes. *)
  Array.iteri
    (fun i c ->
      if crashed <> Some i then begin
        Client.declare_failed svc ~cid:c.Ctx.cid;
        ignore (Recovery.recover svc ~failed_cid:c.Ctx.cid)
      end)
    clients;
  ignore (Reclaim.scan_all svc ~is_client_alive:(fun _ -> false));
  let v = Shm.validate arena in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %s" label
       (String.concat "; " (match v.Validate.errors with [] -> [ "clean" ] | e -> e)))
    true
    (Validate.is_clean v);
  Alcotest.(check int) (label ^ ": nothing left alive") 0 v.Validate.live_objects

let test_no_crash_baseline () =
  let r = run_workload ~seed:42 ~steps:400 ~plan:(fun _ -> Fault.none) in
  finish_and_validate ~label:"baseline" r

let test_crash_sweep () =
  (* For several seeds, crash client 0 at the n-th crash point it reaches,
     sweeping n until the workload completes without crashing. *)
  List.iter
    (fun seed ->
      let rec sweep n =
        if n <= 400 then begin
          let ((_, _, _, crashed) as r) =
            run_workload ~seed ~steps:150 ~plan:(fun i ->
                if i = 0 then Fault.nth_point ~n else Fault.none)
          in
          finish_and_validate
            ~label:(Printf.sprintf "seed %d crash@%d" seed n)
            r;
          if crashed <> None then sweep (n + 7)
        end
      in
      sweep 1)
    [ 1; 2; 3 ]

let test_random_crash_storm () =
  (* Every client can crash with low probability at any point. *)
  List.iter
    (fun seed ->
      let r =
        run_workload ~seed ~steps:300 ~plan:(fun i ->
            Fault.random ~seed:(seed + i) ~probability:0.002)
      in
      finish_and_validate ~label:(Printf.sprintf "storm seed %d" seed) r)
    [ 11; 12; 13; 14; 15 ]

(* The CI soak configuration reaches at least these crash points; the
   first eleven are every point the simple one-client drill once reached. *)
let test_soak_coverage () =
  let runs = Soak.run_matrix ~seed:1 ~steps:400 in
  let unreached = Soak.unreached_points runs in
  List.iter
    (fun p ->
      if List.mem p unreached then Alcotest.failf "crash point %s unreached" p)
    [ "alloc-after-rootref"; "alloc-after-link"; "alloc-after-advance";
      "alloc-after-header"; "txn-after-redo"; "txn-after-cas";
      "txn-after-modify-ref"; "release-before-reclaim"; "release-mid-reclaim";
      "slowpath-after-page-claim"; "slowpath-after-segment-claim";
      "change-after-first-cas"; "change-after-modify-ref"; "send-after-attach";
      "recv-after-attach"; "recv-after-detach"; "recv-after-advance" ];
  Alcotest.(check int) "no failing run" 0 (List.length (Soak.failures runs))

let test_every_drill_passes () =
  List.iter
    (fun d ->
      let r = d.Drills.run ~seed:d.Drills.seed in
      if not r.Drills.pass then
        Alcotest.failf "drill %s failed: %s" d.Drills.name r.Drills.report)
    (Drills.all ())

let suite =
  [
    Alcotest.test_case "baseline (no crash)" `Quick test_no_crash_baseline;
    Alcotest.test_case "crash sweep" `Slow test_crash_sweep;
    Alcotest.test_case "random crash storm" `Quick test_random_crash_storm;
    Alcotest.test_case "soak reaches the drill crash points" `Quick
      test_soak_coverage;
    Alcotest.test_case "every drill passes at its default seed" `Quick
      test_every_drill_passes;
  ]
