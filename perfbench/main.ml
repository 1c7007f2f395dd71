(* perfbench: the repository's benchmark.

     main.exe --workload kv-read-hot|kv-write-churn|rpc-fanin
              --seed N --seconds S --trace 0|1 [--spans-dir DIR]

   Prints one line per metric, then the result as one JSON object on the
   last line. Exits 1 when the correctness oracle finds a violation. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and spans_dir = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 plain run or traced run");
      ("--spans-dir", Arg.Set_string spans_dir, "DIR where the traced run writes spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Perfbench.Bench.workloads) then begin
    prerr_endline
      ("unknown workload; one of: " ^ String.concat ", " Perfbench.Bench.workloads);
    exit 2
  end;
  let r =
    Perfbench.Bench.run ~workload:!workload ~seed:!seed ~seconds:!seconds
      ~trace:(!trace = 1)
      ~spans_dir:(if !spans_dir = "" then None else Some !spans_dir)
  in
  Printf.printf "workload %s seed %d trace %d: attempted %d failed %d\n"
    !workload !seed !trace r.attempted r.failed;
  List.iter (fun (n, v, u) -> Printf.printf "  %-40s %16.6f %s\n" n v u) r.metrics;
  List.iter (fun e -> Printf.printf "  ERROR %s\n" e) r.errors;
  print_endline (Perfbench.Bench.to_json r);
  exit (if r.correct then 0 else 1)
