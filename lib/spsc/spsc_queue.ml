module Mem = Cxlshm_shmem.Mem

(* Layout: +0 magic, +1 capacity, +2 head, +3 tail, +8.. slots.
   Head/tail are monotonically increasing; slot = index mod capacity. *)
let magic = 0x5053_5143 (* "SPSC" *)
let hdr_words = 8

type t = { mem : Mem.t; base : int; cap : int }

let words_needed ~capacity = hdr_words + capacity

let create mem ~st ~base ~capacity =
  if capacity < 1 then invalid_arg "Spsc_queue.create: capacity must be >= 1";
  Mem.store mem ~st (base + 1) capacity;
  Mem.store mem ~st (base + 2) 0;
  Mem.store mem ~st (base + 3) 0;
  Mem.fence mem ~st;
  Mem.store mem ~st base magic;
  { mem; base; cap = capacity }

let attach mem ~st ~base =
  if Mem.load mem ~st base <> magic then
    invalid_arg "Spsc_queue.attach: no queue at this address";
  let cap = Mem.load mem ~st (base + 1) in
  (* A corrupt header with the magic intact would otherwise surface later
     as Division_by_zero in [slot]. *)
  if cap < 1 then invalid_arg "Spsc_queue.attach: corrupt capacity";
  { mem; base; cap }

let capacity t = t.cap
let head t ~st = Mem.load t.mem ~st (t.base + 2)
let tail t ~st = Mem.load t.mem ~st (t.base + 3)
let slot t i = t.base + hdr_words + (i mod t.cap)

(* Lamport's protocol, one fence and one index store per call: the slots
   are filled (resp. read) strictly before the one tail (resp. head) store
   that publishes them, so a consumer can never observe a slot the fence
   has not ordered. The single-element calls are the batch of one. *)

let try_push_n t ~st vs =
  match vs with
  | [] -> 0
  | _ ->
      let tl = tail t ~st in
      let room = t.cap - (tl - head t ~st) in
      if room <= 0 then 0
      else begin
        let n = ref 0 in
        List.iteri
          (fun i v ->
            if i < room then begin
              Mem.store t.mem ~st (slot t (tl + i)) v;
              incr n
            end)
          vs;
        Mem.fence t.mem ~st;
        Mem.store t.mem ~st (t.base + 3) (tl + !n);
        !n
      end

let try_push t ~st v = try_push_n t ~st [ v ] = 1

(* Mutation self-check switch: re-introduces the missing-fence pop bug this
   queue shipped with for two PRs. OCaml atomics are sequentially
   consistent, so simply deleting the fence below would change nothing in
   simulation — instead the mutation applies the reordering the missing
   fence *permits* on real hardware: the head store is issued before the
   slot reads, so the producer can reuse the slots while the consumer still
   holds stale values. Test-only; never set outside the explorer. *)
let mutation_unfenced_pop = ref false

let try_pop_n t ~st ~max =
  if max <= 0 then []
  else
    let hd = head t ~st in
    let n = min max (tail t ~st - hd) in
    if n <= 0 then []
    else if !mutation_unfenced_pop then begin
      Mem.store t.mem ~st (t.base + 2) (hd + n);
      List.init n (fun i -> Mem.load t.mem ~st (slot t (hd + i)))
    end
    else begin
      let vs = List.init n (fun i -> Mem.load t.mem ~st (slot t (hd + i))) in
      (* The slot reads must complete before the head store publishes the
         slots back to the producer; without the fence the producer may
         overwrite a slot while we still hold a stale value. *)
      Mem.fence t.mem ~st;
      Mem.store t.mem ~st (t.base + 2) (hd + n);
      vs
    end

let try_pop t ~st =
  match try_pop_n t ~st ~max:1 with [ v ] -> Some v | _ -> None

let rec push t ~st v =
  if not (try_push t ~st v) then begin
    Domain.cpu_relax ();
    push t ~st v
  end

let rec pop t ~st =
  match try_pop t ~st with
  | Some v -> v
  | None ->
      Domain.cpu_relax ();
      pop t ~st

let length t ~st = tail t ~st - head t ~st
