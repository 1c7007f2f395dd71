(** The one report format and baseline gate behind every committed
    [BENCH_*.json].

    A report is a named list of metrics. A {e gated} metric is compared
    with the same metric of a committed baseline report and must stay
    within {!budget_pct} of it in both directions: worse is a regression,
    better means the baseline is stale and the new report must be
    committed. A metric may also carry an absolute [limit], which
    {!write} checks on every run, gated or not. *)

type better = Lower | Higher

type metric = {
  name : string;
  value : float;
  unit : string;
  better : better;
  gated : bool;  (** compared with the baseline by {!gate} *)
  limit : float option;  (** absolute bound in the [better] direction *)
}

type t = { report : string; metrics : metric list }

val budget_pct : float
(** 5.0: how far a gated metric may move from its baseline, either way. *)

val metric :
  ?gated:bool -> ?limit:float -> string -> float -> unit:string -> better -> metric
(** [gated] defaults to [false]. Raises [Invalid_argument] on a non-finite
    value or a name or unit holding a quote, a backslash or a control
    character. *)

val file : string -> string
(** [file report] is ["BENCH_" ^ report ^ ".json"]. *)

val write : string -> t -> unit
(** [write path r] writes [r] to [path] as one JSON object with one metric
    per line, then raises [Failure] if any metric violates its [limit]. *)

val read : string -> t
(** Reads what {!write} wrote; raises [Failure] on anything else. *)

val gate : baseline:t -> t -> unit
(** Prints one line per gated metric (baseline -> now, % change), then
    raises [Failure] if a gated metric moved beyond {!budget_pct} in
    either direction, is gated on one side only, or if the two reports
    have different names. *)

val pick : (string * float * string) list -> string -> better -> metric
(** [pick reported name better] is the gated metric [name] taken from
    (name, value, unit) triples such as a perfbench result. Raises
    [Failure] when [name] is absent or exactly [0.0]: perfbench reports
    every layer name, with [0.0] for one the workload never produced,
    and such a name would otherwise gate a constant. *)
