(* One benchmark run: repeat a workload until the time budget is spent,
   check every repetition, and reduce them to the reported metrics.

   Modeled figures must repeat exactly whenever an input stream is run
   again; wall figures are medians over the repetitions. The plain run
   reports the end-to-end metrics; the traced run alternates plain and
   traced repetitions of one stream, requires their modeled figures to be
   bit-identical, and reports the per-layer metrics plus the tracing
   overhead and the secondary wall figures. *)

let workloads = [ "kv-read-hot"; "kv-write-churn"; "rpc-fanin" ]

let run_rep name ~seed ~tracing ~full =
  match name with
  | "kv-read-hot" -> Kv_work.run ~seed ~tracing ~full Kv_work.read_hot
  | "kv-write-churn" -> Kv_work.run ~seed ~tracing ~full Kv_work.write_churn
  | "rpc-fanin" -> Rpc_work.run ~seed ~tracing ~full Rpc_work.fanin
  | _ -> invalid_arg ("unknown workload " ^ name)

let end_to_end_units =
  [
    ("setup_s", "s");
    ("mean_ns", "ns");
    ("tail_mean_ns", "ns");
    ("max_rate_mops", "Mop/s");
    ("svc_ns_per_op", "ns");
  ]

let ends_with s suf =
  let n = String.length s and k = String.length suf in
  n >= k && String.sub s (n - k) k = suf

let layer_unit name =
  let rules =
    [
      (".calls", "count"); (".words", "words"); (".fences", "count");
      (".flushes", "count"); ("_us_p50", "us"); ("_frac", "ratio");
      ("_ratio", "ratio"); ("_amp", "ratio"); ("kops", "kop/s"); ("_s", "s");
      ("deferred_left", "count");
    ]
  in
  match List.find_opt (fun (suf, _) -> ends_with name suf) rules with
  | Some (_, u) -> u
  | None -> "ns"

let median xs = Meter.quantile (Array.of_list xs) 0.5

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  errors : string list;
  metrics : (string * float * string) list;
}

(* Run repetitions until [seconds] have passed, at least [min_reps]. *)
let repeat ~seconds ~min_reps f =
  let t0 = Meter.wall () in
  let rec go k acc =
    let r = f k in
    let acc = r :: acc in
    let elapsed = Meter.wall () -. t0 in
    let per = elapsed /. float_of_int (k + 1) in
    if k + 1 >= min_reps && elapsed +. per > seconds then List.rev acc
    else go (k + 1) acc
  in
  go 0 []

(* A plain run averages its modeled figures over this many input streams
   derived from the seed: allocator placement and line-filter conflicts
   make one stream's costs differ by a few percent from another's. *)
let subseeds = 5

let subseed seed sub = (seed * 16) + sub

(* Every modeled figure [b] reports equals [a]'s, bit for bit. *)
let same_modeled (a : Work.t) (b : Work.t) =
  List.for_all
    (fun (n, v) -> List.assoc_opt n a.Work.modeled = Some v)
    b.Work.modeled

let run ~workload ~seed ~seconds ~trace ~spans_dir =
  let errors = ref [] in
  let err s = errors := s :: !errors in
  let check_rep k (r : Work.t) =
    List.iter (fun e -> err (Printf.sprintf "rep %d: %s" k e)) r.Work.errors
  in
  let metrics, first =
    if not trace then begin
      (* repetition r runs sub-seed (r mod subseeds); the first pass over
         the sub-seeds is full, later passes re-run them cheaply for wall
         figures and must repeat their modeled figures exactly *)
      let reps =
        repeat ~seconds ~min_reps:subseeds (fun r ->
            Gc.compact ();
            let sub = r mod subseeds in
            let rep, _ =
              run_rep workload ~seed:(subseed seed sub) ~tracing:false
                ~full:(r < subseeds)
            in
            check_rep r rep;
            rep)
        |> Array.of_list
      in
      Array.iteri
        (fun r rep ->
          if r >= subseeds && not (same_modeled reps.(r - subseeds) rep) then
            err (Printf.sprintf "rep %d: modeled metrics differ from rep %d" r
                   (r - subseeds)))
        reps;
      let full = Array.sub reps 0 subseeds in
      let avg name =
        Meter.mean (Array.map (fun r -> List.assoc name r.Work.modeled) full)
      in
      let all =
        ("setup_s", median (Array.to_list (Array.map (fun r -> r.Work.setup_s) reps)))
        :: List.map (fun (n, _) -> (n, avg n)) reps.(0).Work.modeled
      in
      ( List.map
          (fun (n, u) ->
            (n, (match List.assoc_opt n all with Some v -> v | None -> nan), u))
          end_to_end_units,
        reps.(0) )
    end
    else begin
      (* alternate plain (even) and traced (odd) repetitions *)
      let last_traced = ref None in
      let reps =
        repeat ~seconds ~min_reps:2 (fun k ->
            let tracing = k mod 2 = 1 in
            Gc.compact ();
            let r, m =
              run_rep workload ~seed:(subseed seed 0) ~tracing ~full:(k < 2)
            in
            check_rep k r;
            if tracing then last_traced := Some m;
            (tracing, r))
      in
      let plain = List.filter_map (fun (t, r) -> if t then None else Some r) reps in
      let traced = List.filter_map (fun (t, r) -> if t then Some r else None) reps in
      let p0 = List.hd plain and t0 = List.hd traced in
      List.iter
        (fun r ->
          if not (same_modeled p0 r) then
            err "traced and plain repetitions disagree on modeled metrics")
        (plain @ traced);
      (* per-call figures are modeled too, so they must also agree *)
      List.iter
        (fun (n, v) ->
          match List.assoc_opt n t0.Work.layer with
          | Some v' when v' <> v ->
              err (Printf.sprintf "traced run changes %s: %g -> %g" n v v')
          | _ -> ())
        p0.Work.layer;
      let wall rs = median (List.map (fun r -> r.Work.run_s) rs) in
      let overhead = (wall traced /. wall plain) -. 1.0 in
      let kops (r : Work.t) =
        float_of_int (r.Work.attempted - r.Work.failed) /. r.Work.run_s /. 1000.0
      in
      (match (!last_traced, spans_dir) with
      | Some m, Some dir ->
          (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
          Meter.write_spans m
            (Filename.concat dir
               (Printf.sprintf "%s-seed%d.spans.tsv" workload seed))
      | _ -> ());
      let all =
        ("trace.overhead_frac", overhead)
        :: ("wall.kops", median (List.map kops plain))
        :: ("wall.check_s", median (List.map (fun r -> r.Work.check_s) plain))
        :: t0.Work.layer
      in
      ( List.map
          (fun n ->
            (n, Option.value (List.assoc_opt n all) ~default:0.0, layer_unit n))
          Work.layer_names,
        t0 )
    end
  in
  List.iter
    (fun (n, v, _) ->
      if not (Float.is_finite v) then
        err (Printf.sprintf "metric %s is not finite" n))
    metrics;
  let errors = List.rev !errors in
  {
    correct = errors = [];
    attempted = first.Work.attempted;
    failed = first.Work.failed;
    errors;
    metrics =
      List.map (fun (n, v, u) -> (n, (if Float.is_finite v then v else 0.0), u)) metrics;
  }

let to_json r =
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    r.correct r.attempted r.failed;
  List.iteri
    (fun i (n, v, u) ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" n v u)
    r.metrics;
  Buffer.add_string b "}}";
  Buffer.contents b
