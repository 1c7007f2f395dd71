(* Seeded input generation. Everything a workload feeds the libraries is
   drawn here from the workload seed before the measured phase starts, so
   one seed gives one input stream and the program only receives it. *)

(* Gray et al.'s constant-time zipf sampler over ranks [0, n). *)
type zipf = { n : int; theta : float; alpha : float; zetan : float; eta : float }

let zeta n theta =
  let s = ref 0.0 in
  for i = 1 to n do
    s := !s +. (1.0 /. (float_of_int i ** theta))
  done;
  !s

let zipf n theta =
  let zetan = zeta n theta in
  let eta =
    (1.0 -. ((2.0 /. float_of_int n) ** (1.0 -. theta)))
    /. (1.0 -. (zeta 2 theta /. zetan))
  in
  { n; theta; alpha = 1.0 /. (1.0 -. theta); zetan; eta }

let zipf_draw z rng =
  let u = Random.State.float rng 1.0 in
  let uz = u *. z.zetan in
  if uz < 1.0 then 0
  else if uz < 1.0 +. (0.5 ** z.theta) then 1
  else
    let r =
      int_of_float
        (float_of_int z.n *. (((z.eta *. u) -. z.eta +. 1.0) ** z.alpha))
    in
    max 0 (min (z.n - 1) r)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Poisson arrivals: exponential gaps at [rate_mops] per modeled µs. *)
let arrivals rng ~n ~rate_mops =
  let gap = 1000.0 /. rate_mops in
  let t = ref 0.0 in
  Array.init n (fun _ ->
      t := !t +. (-.gap *. Float.log (1.0 -. Random.State.float rng 1.0));
      !t)

let value rng = 1 + Random.State.bits rng

(* ---- KV ----------------------------------------------------------- *)

type kind = Read | Update | Insert | Rmw

let kind_name = function
  | Read -> "read"
  | Update -> "update"
  | Insert -> "insert"
  | Rmw -> "rmw"

type kv = {
  preload : int array;  (** value of key k at load time *)
  arrival : float array;
  kind : kind array;
  key : int array;
  arg : int array;  (** new value (update/insert) or rmw delta *)
}

type mix = { read : float; update : float; insert : float }
(** rmw takes what the three leave. *)

let kv rng ~keys ~ops ~rate_mops ~theta ~mix =
  let preload = Array.init keys (fun _ -> value rng) in
  let arrival = arrivals rng ~n:ops ~rate_mops in
  (* hot ranks land on seeded keys, spread over partitions and buckets *)
  let perm = Array.init keys Fun.id in
  shuffle rng perm;
  let z = Option.map (fun th -> zipf keys th) theta in
  let population = ref keys in
  let pick () =
    match z with
    | Some z -> perm.(zipf_draw z rng)
    | None -> Random.State.int rng !population
  in
  let kind = Array.make ops Read and key = Array.make ops 0 in
  let arg = Array.make ops 0 in
  for i = 0 to ops - 1 do
    let u = Random.State.float rng 1.0 in
    if u < mix.read then key.(i) <- pick ()
    else if u < mix.read +. mix.update then begin
      kind.(i) <- Update;
      key.(i) <- pick ();
      arg.(i) <- value rng
    end
    else if u < mix.read +. mix.update +. mix.insert then begin
      kind.(i) <- Insert;
      key.(i) <- !population;
      incr population;
      arg.(i) <- value rng
    end
    else begin
      kind.(i) <- Rmw;
      key.(i) <- pick ();
      arg.(i) <- 1 + Random.State.int rng 1000
    end
  done;
  { preload; arrival; kind; key; arg }

(* ---- RPC ---------------------------------------------------------- *)

type call = { func : int; sizes : int array; (** argument bytes *) words : int array }
(** [words.(i)] seeds the head and tail words of argument [i]. *)

let payload_sizes = [| 64; 1024; 8192 |]

let rpc rng ~calls =
  Array.init calls (fun _ ->
      let nargs = 1 + Random.State.int rng 3 in
      {
        func = 1 + Random.State.int rng 1000;
        sizes =
          Array.init nargs (fun _ ->
              payload_sizes.(Random.State.int rng (Array.length payload_sizes)));
        words = Array.init nargs (fun _ -> value rng);
      })
