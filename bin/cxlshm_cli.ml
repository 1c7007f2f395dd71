(* cxlshm — command-line driver for poking at a simulated CXL-SHM arena.

   Subcommands:
     demo      allocate / share / crash / recover walk-through
     drill     run the fault-injection drills by name (Cxlshm_check.Drills)
     stats     print arena geometry for a given configuration
     validate  build a randomized workload and validate the arena
     dump      run a small workload and dump the arena state
     fsck      verify (and optionally repair) a saved pool image
     trace     replay a client's event ring from a saved image
     top       per-op latency summary over every ring in a saved image
     explore   model-check the concurrent protocols (Cxlshm_check.Scenarios) *)

open Cxlshm
open Cmdliner

let geometry segments pages page_words clients backend =
  {
    Config.default with
    Config.num_segments = segments;
    pages_per_segment = pages;
    page_words;
    max_clients = clients;
    backend;
  }

let seg_arg =
  Arg.(value & opt int 64 & info [ "segments" ] ~doc:"Number of segments.")

let pages_arg =
  Arg.(value & opt int 16 & info [ "pages" ] ~doc:"Pages per segment.")

let pw_arg =
  Arg.(value & opt int 1024 & info [ "page-words" ] ~doc:"Words per page.")

let clients_arg =
  Arg.(value & opt int 16 & info [ "clients" ] ~doc:"Maximum clients (M).")

(* ---- memory backend selection ---- *)

let backend_kind_arg =
  Arg.(
    value
    & opt (enum [ ("flat", `Flat); ("striped", `Striped); ("counting", `Counting) ]) `Flat
    & info [ "backend" ]
        ~doc:
          "Memory backend: $(b,flat) (one device), $(b,striped) (sharded \
           multi-device pool) or $(b,counting) (fast non-atomic, \
           single-domain only).")

let devices_arg =
  Arg.(
    value & opt int 4
    & info [ "devices" ] ~doc:"Devices in the striped pool.")

let stripe_arg =
  Arg.(
    value & opt int 0
    & info [ "stripe-words" ]
        ~doc:"Stripe granularity in words (0 = one segment per stripe).")

let tier_enum =
  [
    ("local", Cxlshm_shmem.Latency.Local_numa);
    ("remote", Cxlshm_shmem.Latency.Remote_numa);
    ("cxl", Cxlshm_shmem.Latency.Cxl);
  ]

let tiers_arg =
  Arg.(
    value
    & opt (list (enum tier_enum)) []
    & info [ "device-tiers" ]
        ~doc:
          "Comma-separated per-device tiers (local|remote|cxl), one per \
           device; empty = every device at the pool tier.")

let backend_spec kind devices stripe tiers =
  match kind with
  | `Flat -> Cxlshm_shmem.Mem.Flat
  | `Counting -> Cxlshm_shmem.Mem.Counting_fast
  | `Striped ->
      Cxlshm_shmem.Mem.Striped
        { devices; stripe_words = stripe; tiers = Array.of_list tiers }

let backend_term =
  Term.(const backend_spec $ backend_kind_arg $ devices_arg $ stripe_arg $ tiers_arg)

(* ---- stats ---- *)

let stats segments pages page_words clients backend =
  let cfg = geometry segments pages page_words clients backend in
  let lay = Layout.make cfg in
  Printf.printf "arena geometry\n";
  Printf.printf "  total words        %d (%d MiB simulated)\n"
    lay.Layout.total_words
    (lay.Layout.total_words * 8 / 1024 / 1024);
  Printf.printf "  segments           %d x %d words\n" cfg.Config.num_segments
    lay.Layout.segment_words;
  Printf.printf "  segment header     %d words\n" lay.Layout.seg_hdr_words;
  Printf.printf "  size classes       %d (%d..%d words/block)\n"
    (Config.num_classes cfg)
    (Config.class_block_words cfg 0)
    (Config.class_block_words cfg (Config.num_classes cfg - 1));
  Printf.printf "  client state       %d words each\n" lay.Layout.client_state_words;
  Printf.printf "  era matrix         %dx%d\n" cfg.Config.max_clients
    cfg.Config.max_clients;
  Printf.printf "  queue directory    %d slots\n" cfg.Config.queue_slots;
  let arena = Shm.create ~cfg () in
  let mem = Shm.mem arena in
  let module Mem = Cxlshm_shmem.Mem in
  Printf.printf "  backend            %s\n" (Mem.backend_name mem);
  let ndev = Mem.num_devices mem in
  if ndev > 1 then begin
    (* how segments land on devices under the resolved stripe granularity *)
    let per_dev = Array.make ndev 0 in
    for s = 0 to cfg.Config.num_segments - 1 do
      let d = Mem.device_of mem (Layout.segment_base lay s) in
      per_dev.(d) <- per_dev.(d) + 1
    done;
    Array.iteri
      (fun d n ->
        Printf.printf "  device %-2d          %-6s %d segments\n" d
          (Cxlshm_shmem.Latency.tier_name (Mem.device_tier mem d))
          n)
      per_dev
  end;
  0

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~doc:"Print the arena layout for a configuration.")
    Term.(const stats $ seg_arg $ pages_arg $ pw_arg $ clients_arg $ backend_term)

(* ---- demo ---- *)

let demo objects backend =
  let arena = Shm.create ~cfg:{ Config.default with Config.backend } () in
  let a = Shm.join arena () in
  let b = Shm.join arena () in
  Printf.printf "joined clients %d and %d\n" a.Ctx.cid b.Ctx.cid;
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:16 in
  let qb = ref None in
  let received = ref 0 in
  for i = 1 to objects do
    let r = Shm.cxl_malloc a ~size_bytes:32 () in
    Cxl_ref.write_word r 0 (i * 11);
    (match Transfer.send q r with
    | Transfer.Sent -> ()
    | Transfer.Full | Transfer.Closed -> failwith "send failed");
    Cxl_ref.drop r;
    if !qb = None then qb := Transfer.open_from b ~sender:a.Ctx.cid;
    match !qb with
    | Some queue -> (
        match Transfer.receive queue with
        | Transfer.Received rb ->
            incr received;
            Cxl_ref.drop rb
        | Transfer.Empty | Transfer.Drained -> ())
    | None -> ()
  done;
  Printf.printf "sent %d objects, received %d\n" objects !received;
  Printf.printf "client A crashes with the queue open...\n";
  Client.declare_failed (Shm.service_ctx arena) ~cid:a.Ctx.cid;
  let rep = Shm.recover arena ~failed_cid:a.Ctx.cid in
  Format.printf "recovery: %a@." Recovery.pp_report rep;
  (match !qb with Some queue -> Transfer.close queue | None -> ());
  Shm.leave b;
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Format.printf "validation: %a@." Validate.pp v;
  if Validate.is_clean v then 0 else 1

let demo_cmd =
  Cmd.v
    (Cmd.info "demo" ~doc:"Allocate/share/crash/recover walk-through.")
    Term.(
      const demo
      $ Arg.(value & opt int 100 & info [ "objects" ] ~doc:"Objects to pass.")
      $ backend_term)

(* ---- drill ---- *)

module Drills = Cxlshm_check.Drills

let drill names seed out =
  match
    List.concat_map
      (function "all" -> Drills.all () | n -> [ Drills.find n ])
      names
  with
  | exception Invalid_argument m ->
      prerr_endline m;
      2
  | drills ->
      let results =
        List.map
          (fun d ->
            let seed = Option.value seed ~default:d.Drills.seed in
            Printf.printf "== %s (seed %d)\n%!" d.Drills.name seed;
            let r = d.Drills.run ~seed in
            print_endline r.Drills.report;
            (d, seed, r))
          drills
      in
      Option.iter
        (fun path ->
          Out_channel.with_open_text path (fun oc ->
              output_string oc (Drills.to_json results ^ "\n")))
        out;
      let failed =
        List.filter_map
          (fun (d, _, r) -> if r.Drills.pass then None else Some d.Drills.name)
          results
      in
      Printf.printf "drills: %d passed, %d failed%s\n"
        (List.length results - List.length failed)
        (List.length failed)
        (if failed = [] then "" else " (" ^ String.concat ", " failed ^ ")");
      if failed = [] then 0 else 1

let drill_cmd =
  Cmd.v
    (Cmd.info "drill"
       ~doc:
         "Run fault-injection drills: crash a client, monitor replica, KV \
          writer or RPC endpoint at a labelled point, recover, and check \
          the arena. Exit status 1 if any drill fails.")
    Term.(
      const drill
      $ Arg.(
          value
          & opt (list string) [ "all" ]
          & info [ "name" ]
              ~doc:
                ("Comma-separated drills, or $(b,all): "
                ^ String.concat "; "
                    (List.map
                       (fun d ->
                         Printf.sprintf "$(b,%s) (seed %d): %s" d.Drills.name
                           d.Drills.seed d.Drills.doc)
                       (Drills.all ()))))
      $ Arg.(
          value
          & opt (some int) None
          & info [ "seed" ] ~doc:"Seed for every drill run (default: each drill's own).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "out" ] ~doc:"Write every drill's JSON record to this file."))

(* ---- validate ---- *)

let validate_run seed steps backend trace crash_point crash_nth out_image =
  let arena =
    Shm.create ~cfg:{ Config.small with Config.backend; trace } ()
  in
  let a = Shm.join arena () in
  (match crash_point with
  | None -> ()
  | Some n -> (
      match
        List.find_opt (fun p -> Fault.point_name p = n) Fault.all_points
      with
      | Some p -> a.Ctx.fault <- Fault.at p ~nth:crash_nth
      | None ->
          Printf.eprintf "unknown crash point %s\n" n;
          exit 2));
  let rng = Random.State.make [| seed |] in
  let held = ref [] in
  let crashed =
    try
      for _ = 1 to steps do
        match Random.State.int rng 3 with
        | 0 ->
            held :=
              Shm.cxl_malloc a ~size_bytes:(8 + Random.State.int rng 64) ()
              :: !held
        | 1 -> (
            match !held with
            | r :: rest ->
                held := rest;
                Cxl_ref.drop r
            | [] -> ())
        | _ -> (
            match !held with
            | r :: _ -> Cxl_ref.write_word r 0 (Random.State.int rng 1000)
            | [] -> ())
      done;
      List.iter Cxl_ref.drop !held;
      false
    with Fault.Crashed msg ->
      Printf.printf "client %d crashed at %s\n" a.Ctx.cid msg;
      true
  in
  (* Save before recovery so the image holds the crash-time ring. *)
  (match out_image with
  | None -> ()
  | Some path ->
      Shm.save arena path;
      Printf.printf "image saved to %s\n" path);
  if crashed then begin
    let svc = Shm.service_ctx arena in
    Client.declare_failed svc ~cid:a.Ctx.cid;
    ignore (Shm.recover arena ~failed_cid:a.Ctx.cid);
    ignore (Shm.scan_leaking arena)
  end;
  let v = Shm.validate arena in
  Format.printf "validation: %a@." Validate.pp v;
  if Validate.is_clean v then 0 else 1

let validate_cmd =
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Random workload + whole-arena validation; optionally kill the \
          client at a crash point and save the pre-recovery image.")
    Term.(
      const validate_run
      $ Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.")
      $ Arg.(value & opt int 1000 & info [ "steps" ] ~doc:"Workload steps.")
      $ backend_term
      $ Arg.(
          value & flag
          & info [ "trace" ] ~doc:"Enable the observability layer.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "crash-point" ]
              ~doc:
                ("Kill the client at this crash point: "
                ^ String.concat ", " (List.map Fault.point_name Fault.all_points)
                ^ "."))
      $ Arg.(
          value & opt int 1
          & info [ "crash-nth" ]
              ~doc:"Crash at the n-th occurrence of the point (1-based).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "out-image" ]
              ~doc:
                "Save the arena here before recovery runs (feed it to \
                 $(b,trace)/$(b,top)/$(b,fsck))."))

(* ---- trace / top ---- *)

let trace_view image cid last =
  let arena = Shm.load_raw image in
  let mem = Shm.mem arena and lay = Shm.layout arena in
  if cid < 0 || cid >= lay.Layout.cfg.Config.max_clients then begin
    Printf.eprintf "cid %d out of range\n" cid;
    exit 2
  end;
  let events = Trace.dump mem lay ~cid ?last () in
  if events = [] then begin
    Printf.printf "client %d: no trace events (tracing off?)\n" cid;
    0
  end
  else begin
    Printf.printf "client %d: %d events\n" cid (List.length events);
    List.iter (fun e -> Format.printf "%a@." Trace.pp_event e) events;
    0
  end

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Replay a client's shared-memory event ring from a saved image \
          (works on crashed, unrecovered images).")
    Term.(
      const trace_view
      $ Arg.(
          required
          & pos 0 (some file) None
          & info [] ~docv:"IMAGE" ~doc:"Pool image from $(b,save).")
      $ Arg.(value & opt int 0 & info [ "cid" ] ~doc:"Client id.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "last" ] ~doc:"Only the most recent K events."))

let top image =
  let module Histogram = Cxlshm_shmem.Histogram in
  let arena = Shm.load_raw image in
  let mem = Shm.mem arena and lay = Shm.layout arena in
  let cfg = lay.Layout.cfg in
  let hists = Histogram.create_set () in
  let total = ref 0 in
  for cid = 0 to cfg.Config.max_clients - 1 do
    let events = Trace.dump mem lay ~cid () in
    if events <> [] then begin
      total := !total + List.length events;
      Printf.printf "client %-3d %d events\n" cid (List.length events);
      List.iter
        (fun e ->
          match e.Trace.phase with
          | Trace.End ->
              Histogram.record
                hists.(Histogram.op_index e.Trace.op)
                (float_of_int e.Trace.dur_ns)
          | Trace.Begin | Trace.Err -> ())
        events
    end
  done;
  if !total = 0 then begin
    Printf.printf "no trace events in %s (tracing off?)\n" image;
    0
  end
  else begin
    Printf.printf "%-14s %8s %10s %10s %10s %10s %10s\n" "op" "count"
      "mean ns" "p50 ns" "p95 ns" "p99 ns" "max ns";
    List.iter
      (fun op ->
        let h = hists.(Histogram.op_index op) in
        if Histogram.count h > 0 then
          Printf.printf "%-14s %8d %10.0f %10.0f %10.0f %10.0f %10.0f\n"
            (Histogram.op_name op) (Histogram.count h) (Histogram.mean_ns h)
            (Histogram.p50 h) (Histogram.p95 h) (Histogram.p99 h)
            (Histogram.max_ns h))
      Histogram.all_ops;
    0
  end

let top_cmd =
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Aggregate every client's event ring in a saved image into per-op \
          latency summaries (completed spans only).")
    Term.(
      const top
      $ Arg.(
          required
          & pos 0 (some file) None
          & info [] ~docv:"IMAGE" ~doc:"Pool image from $(b,save)."))

(* ---- dump ---- *)

let dump seed steps backend =
  let arena = Shm.create ~cfg:{ Config.small with Config.backend } () in
  let a = Shm.join arena () in
  let b = Shm.join arena () in
  let rng = Random.State.make [| seed |] in
  let held = ref [] in
  for _ = 1 to steps do
    match Random.State.int rng 3 with
    | 0 -> held := Shm.cxl_malloc a ~size_bytes:(8 + Random.State.int rng 64) () :: !held
    | 1 -> (
        match !held with
        | r :: rest ->
            held := rest;
            Cxl_ref.drop r
        | [] -> ())
    | _ -> Client.heartbeat b
  done;
  Format.printf "%a@." Debug.pp_arena (Shm.mem arena, Shm.layout arena);
  print_endline (Debug.summary (Shm.mem arena) (Shm.layout arena));
  0

let dump_cmd =
  Cmd.v
    (Cmd.info "dump" ~doc:"Run a small workload and dump the arena state.")
    Term.(
      const dump
      $ Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.")
      $ Arg.(value & opt int 200 & info [ "steps" ] ~doc:"Workload steps.")
      $ backend_term)

(* ---- fsck ---- *)

let fsck image repair out =
  let arena = Shm.load_raw image in
  let v = Validate.run (Shm.mem arena) (Shm.layout arena) in
  if Validate.is_clean v then begin
    Printf.printf "%s: clean\n" image;
    0
  end
  else begin
    Format.printf "%s: DIRTY@.%a@." image Validate.pp v;
    if not repair then 1
    else begin
      let report = Shm.fsck arena in
      Format.printf "repair: %a@." Fsck.pp report;
      let dest = Option.value out ~default:image in
      Shm.save arena dest;
      Printf.printf "repaired image written to %s\n" dest;
      if Fsck.clean report then 0 else 1
    end
  end

let fsck_cmd =
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Verify a saved pool image; with $(b,--repair), restore its \
          structural invariants and write the result back.")
    Term.(
      const fsck
      $ Arg.(
          required
          & pos 0 (some file) None
          & info [] ~docv:"IMAGE" ~doc:"Pool image from $(b,save).")
      $ Arg.(value & flag & info [ "repair" ] ~doc:"Repair, not just verify.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "out" ]
              ~doc:"Write the repaired image here instead of in place."))

(* ---- explore: model-checking schedule exploration ---- *)

module Check_explore = Cxlshm_check.Explore
module Check_scenarios = Cxlshm_check.Scenarios
module Check_schedule = Cxlshm_check.Schedule

let model_names =
  String.concat ","
    (List.map (fun m -> m.Check_explore.name) (Check_scenarios.all ()))

let explore models mode seed schedules preemptions no_crash max_steps capacity
    values rounds mutate replay log =
  let crash = not no_crash in
  Option.iter (fun flag -> flag := true) mutate;
  let find_model name =
    try Check_scenarios.find ?capacity ?values ?rounds name
    with Invalid_argument m ->
      prerr_endline m;
      exit 2
  in
  let log_oc =
    Option.map
      (fun f -> open_out_gen [ Open_append; Open_creat ] 0o644 f)
      log
  in
  let emit line =
    print_endline line;
    Option.iter
      (fun oc ->
        output_string oc line;
        output_char oc '\n')
      log_oc
  in
  let code =
    match replay with
    | Some sched_str ->
        let s = Check_schedule.of_string sched_str in
        let m = find_model s.Check_schedule.model in
        let r = Check_explore.replay m ~max_steps s in
        let replayed =
          Check_schedule.to_string
            { Check_schedule.model = m.Check_explore.name;
              decisions = r.Check_explore.decisions }
        in
        (match r.Check_explore.outcome with
        | Check_explore.Pass ->
            emit (Printf.sprintf "replay PASS (%d steps): %s"
                    r.Check_explore.steps replayed);
            0
        | Check_explore.Diverged ->
            emit (Printf.sprintf "replay DIVERGED (fuel %d): %s" max_steps
                    replayed);
            0
        | Check_explore.Fail reason ->
            emit (Printf.sprintf "replay FAIL: %s" reason);
            emit (Printf.sprintf "schedule: %s" replayed);
            1)
    | None ->
        let names = String.split_on_char ',' models in
        let failures = ref [] in
        List.iter
          (fun name ->
            let m = find_model name in
            let report =
              match mode with
              | "random" ->
                  Check_explore.random ~seed ~schedules ~crash ~max_steps m
              | "pct" -> Check_explore.pct ~seed ~schedules ~crash ~max_steps m
              | "exhaustive" ->
                  Check_explore.exhaustive ~preemptions ~crash ~max_steps m
              | other ->
                  Printf.eprintf
                    "unknown mode %s (have: random, pct, exhaustive)\n" other;
                  exit 2
            in
            emit (Format.asprintf "%a" Check_explore.pp_report report);
            Option.iter
              (fun f ->
                failures :=
                  Check_schedule.to_string f.Check_explore.schedule
                  :: !failures)
              report.Check_explore.failure)
          names;
        (match !failures with
        | [] -> 0
        | fs ->
            List.iter
              (fun f ->
                emit
                  (Printf.sprintf
                     "reproduce with: cxlshm explore --replay '%s'" f))
              (List.rev fs);
            1)
  in
  Option.iter close_out log_oc;
  code

let explore_cmd =
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Model-check the concurrent protocols: run the built-in models \
          (see $(b,--model)) under a controlled cooperative scheduler \
          with seeded-random, PCT, or bounded-preemption exhaustive \
          exploration and optional crash injection at any yield point. \
          Every failure prints a schedule string that $(b,--replay) \
          reproduces deterministically.")
    Term.(
      const explore
      $ Arg.(
          value
          & opt string model_names
          & info [ "model" ] ~doc:"Comma-separated models to explore.")
      $ Arg.(
          value & opt string "random"
          & info [ "mode" ]
              ~doc:"Exploration mode: random, pct, or exhaustive.")
      $ Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Base random seed.")
      $ Arg.(
          value & opt int 500
          & info [ "schedules" ]
              ~doc:"Schedules to sample (random/pct modes).")
      $ Arg.(
          value & opt int 3
          & info [ "preemptions" ]
              ~doc:"Preemption bound (exhaustive mode).")
      $ Arg.(
          value & flag
          & info [ "no-crash" ] ~doc:"Disable crash injection at yields.")
      $ Arg.(
          value & opt int 20_000
          & info [ "max-steps" ]
              ~doc:"Yield-point fuel per run; beyond it a run is Diverged.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "capacity" ] ~doc:"Queue capacity override (spsc/transfer).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "values" ] ~doc:"Messages per run override (spsc/transfer).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "rounds" ] ~doc:"Alloc/free rounds override (refc).")
      $ Arg.(
          value
          & opt
              (enum
                 (("none", None)
                 :: List.map (fun (n, flag) -> (n, Some flag))
                      Check_scenarios.mutations))
              None
          & info [ "mutate" ]
              ~doc:
                ("Re-introduce a historical ordering bug before exploring \
                  (self-check): "
                ^ String.concat ", "
                    (List.map (fun (n, _) -> "$(b," ^ n ^ ")")
                       Check_scenarios.mutations)
                ^ "."))
      $ Arg.(
          value
          & opt (some string) None
          & info [ "replay" ]
              ~doc:"Replay one schedule string exactly and report its outcome.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "log" ] ~doc:"Append the report lines to this file."))

let () =
  let info = Cmd.info "cxlshm" ~doc:"CXL-SHM simulated-arena driver." in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            demo_cmd;
            drill_cmd;
            stats_cmd;
            validate_cmd;
            dump_cmd;
            fsck_cmd;
            trace_cmd;
            top_cmd;
            explore_cmd;
          ]))
