type better = Lower | Higher

type metric = {
  name : string;
  value : float;
  unit : string;
  better : better;
  gated : bool;
  limit : float option;
}

type t = { report : string; metrics : metric list }

let budget_pct = 5.0

(* Names and units are written between quotes without escaping. *)
let plain s =
  String.for_all (fun c -> c <> '"' && c <> '\\' && Char.code c >= 0x20) s

let metric ?(gated = false) ?limit name value ~unit better =
  if not (Float.is_finite value) then
    invalid_arg (Printf.sprintf "Bench_report.metric %s: value %g" name value);
  if not (plain name && plain unit) then
    invalid_arg (Printf.sprintf "Bench_report.metric %S %S" name unit);
  { name; value; unit; better; gated; limit }

let file report = "BENCH_" ^ report ^ ".json"

(* ---- writing ---- *)

(* The shortest decimal that reads back as the same float. *)
let num v =
  let rec go p =
    let s = Printf.sprintf "%.*g" p v in
    if p >= 17 || float_of_string s = v then s else go (p + 1)
  in
  go 15

let better_name = function Lower -> "lower" | Higher -> "higher"

let to_string r =
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\n  \"report\": \"%s\",\n  \"metrics\": [\n" r.report;
  List.iteri
    (fun i m ->
      Printf.bprintf b
        "    {\"name\": \"%s\", \"value\": %s, \"unit\": \"%s\", \"better\": \
         \"%s\", \"gated\": %b%s}%s\n"
        m.name (num m.value) m.unit (better_name m.better) m.gated
        (match m.limit with
        | Some l -> ", \"limit\": " ^ num l
        | None -> "")
        (if i = List.length r.metrics - 1 then "" else ","))
    r.metrics;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

(* ---- reading: the JSON subset [to_string] emits ---- *)

type json =
  | Num of float
  | Str of string
  | Bool of bool
  | Arr of json list
  | Obj of (string * json) list

let parse s =
  let n = String.length s and i = ref 0 in
  let fail what = failwith (Printf.sprintf "at byte %d: %s" !i what) in
  let rec skip () =
    if !i < n && String.contains " \t\r\n" s.[!i] then (incr i; skip ())
  in
  let expect c =
    skip ();
    if !i < n && s.[!i] = c then incr i else fail (Printf.sprintf "expected %c" c)
  in
  let word w v =
    let k = String.length w in
    if !i + k <= n && String.sub s !i k = w then (i := !i + k; v)
    else fail "unknown literal"
  in
  let str () =
    expect '"';
    match String.index_from_opt s !i '"' with
    | Some j ->
        let v = String.sub s !i (j - !i) in
        if String.contains v '\\' then fail "escapes are not supported";
        i := j + 1;
        v
    | None -> fail "unterminated string"
  in
  (* [seq close item] reads "item, item, ... close" after the opener *)
  let seq close item =
    skip ();
    if !i < n && s.[!i] = close then (incr i; [])
    else
      let rec go acc =
        let acc = item () :: acc in
        skip ();
        if !i < n && s.[!i] = ',' then (incr i; go acc)
        else (expect close; List.rev acc)
      in
      go []
  in
  let rec value () =
    skip ();
    if !i >= n then fail "unexpected end";
    match s.[!i] with
    | '{' ->
        incr i;
        Obj (seq '}' (fun () -> let k = str () in expect ':'; (k, value ())))
    | '[' -> incr i; Arr (seq ']' value)
    | '"' -> Str (str ())
    | 't' -> word "true" (Bool true)
    | 'f' -> word "false" (Bool false)
    | _ ->
        let j = ref !i in
        while !j < n && String.contains "+-.0123456789eE" s.[!j] do incr j done;
        let lit = String.sub s !i (!j - !i) in
        i := !j;
        (match float_of_string_opt lit with
        | Some v -> Num v
        | None -> fail "expected a value")
  in
  let v = value () in
  skip ();
  if !i <> n then fail "trailing data";
  v

let of_string s =
  let field k fields =
    match List.assoc_opt k fields with
    | Some v -> v
    | None -> failwith ("missing field " ^ k)
  in
  let str = function Str s -> s | _ -> failwith "expected a string" in
  let metric_of = function
    | Obj f ->
        let value = match field "value" f with Num v -> v | _ -> failwith "value" in
        let better =
          match str (field "better" f) with
          | "lower" -> Lower
          | "higher" -> Higher
          | b -> failwith ("better: " ^ b)
        in
        let gated = match field "gated" f with Bool g -> g | _ -> failwith "gated" in
        let limit =
          match List.assoc_opt "limit" f with
          | None -> None
          | Some (Num l) -> Some l
          | Some _ -> failwith "limit"
        in
        metric ~gated ?limit (str (field "name" f)) value
          ~unit:(str (field "unit" f)) better
    | _ -> failwith "expected a metric object"
  in
  match parse s with
  | Obj f ->
      let metrics =
        match field "metrics" f with
        | Arr ms -> List.map metric_of ms
        | _ -> failwith "metrics: expected an array"
      in
      { report = str (field "report" f); metrics }
  | _ -> failwith "expected an object"

let read path =
  let ic = open_in_bin path in
  let s = Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))
  in
  try of_string s
  with Failure e | Invalid_argument e ->
    failwith (Printf.sprintf "%s: not a bench report (%s)" path e)

(* ---- checks ---- *)

let violates m =
  match (m.limit, m.better) with
  | Some l, Lower -> m.value > l
  | Some l, Higher -> m.value < l
  | None, _ -> false

let write path r =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (to_string r));
  Printf.printf "wrote %s\n" path;
  match List.filter violates r.metrics with
  | [] -> ()
  | bad ->
      List.iter
        (fun m ->
          Printf.printf "LIMIT %s = %s %s, must be %s %s\n" m.name (num m.value)
            m.unit
            (match m.better with Lower -> "<=" | Higher -> ">=")
            (num (Option.get m.limit)))
        bad;
      failwith
        (Printf.sprintf "%s report: %d metric(s) beyond their limit" r.report
           (List.length bad))

let gate ~baseline now =
  if baseline.report <> now.report then
    failwith
      (Printf.sprintf "gate: baseline is the %s report, not %s" baseline.report
         now.report);
  let gated r = List.filter (fun m -> m.gated) r.metrics in
  let find r name = List.find_opt (fun m -> m.name = name) (gated r) in
  let failures = ref 0 in
  let fail fmt =
    incr failures;
    Printf.printf fmt
  in
  List.iter
    (fun b ->
      match find now b.name with
      | None -> fail "%-32s MISSING from the fresh report\n" b.name
      | Some m ->
          let pct =
            if m.value = b.value then 0.0
            else (m.value -. b.value) /. Float.abs b.value *. 100.0
          in
          let worse = match m.better with Lower -> pct | Higher -> -.pct in
          Printf.printf "%-32s %12.8g -> %12.8g %-6s (%+.2f%%)\n" b.name b.value
            m.value m.unit pct;
          if worse > budget_pct then
            fail "  REGRESSION beyond the %.0f%% budget\n" budget_pct
          else if worse < -.budget_pct then
            fail "  stale baseline: commit the new report\n")
    (gated baseline);
  List.iter
    (fun m ->
      if find baseline m.name = None then
        fail "%-32s MISSING from the baseline: commit the new report\n" m.name)
    (gated now);
  if !failures > 0 then
    failwith
      (Printf.sprintf "%s gate: %d failure(s) against the baseline" now.report
         !failures)

let pick reported name better =
  match List.find_opt (fun (n, _, _) -> n = name) reported with
  | Some (_, v, unit) when v <> 0.0 -> metric ~gated:true name v ~unit better
  | Some _ -> failwith (name ^ ": reported as 0, so the workload never produced it")
  | None -> failwith (name ^ ": not reported")
