open Cxlshm

type store = {
  index_obj : int;
  buckets : int;
  partitions : int;
  value_words : int;
}

type handle = {
  ctx : Ctx.t;
  store : store;
  index_rr : int;  (** our RootRef keeping the index alive *)
  mutable deferred : (int * int * Cxl_ref.t) list;
      (** displaced records awaiting a quiescent era: retire-epoch stamp,
          persistent-registry slot ([-1] = volatile-only overflow), and the
          counted reference that keeps the block from being recycled under
          a concurrent reader *)
  mutable park_free : int list;
      (** free slots of this client's persistent parked-record registry
          below [park_hw] (every slot at or above it is free too) *)
  mutable park_hw : int;
      (** volatile mirror of this client's {!Layout.park_hw} word *)
}

let name = "CXL-KV"

let mutation_unconditional_quiesce = ref false

let mutation_park_hw_late = ref false

let walk_hook : (unit -> unit) ref = ref (fun () -> ())

(* Index data layout (after the [buckets] embedded slots):
   +0 partitions, +1 value_words, +2.. writer table (cid+1 per partition).
   Record: emb slot 0 = next; data words +1 = key, +2.. = value. *)
let idx_word store i = Obj_header.data_of_obj store.index_obj + store.buckets + i
let writer_word store p = idx_word store (2 + p)
let bucket_slot store b = Obj_header.emb_slot store.index_obj b
let rec_next r = Obj_header.emb_slot r 0
let rec_key r = Obj_header.data_of_obj r + 1
let rec_val r i = Obj_header.data_of_obj r + 2 + i

(* Fibonacci hashing spreads dense integer keys. *)
let hash key = (key * 0x2545F4914F6CDD1D) land max_int

let bucket_of store key = hash key mod store.buckets
let partition_of_key store key = key mod store.partitions

(* ------------------------------------------------------------------ *)
(* Persistent parked-record registry. Every parked record is mirrored
   into the client's [Layout.park_slot_*] registry (stamp fenced first,
   the rr word is the commit point) so a writer crash cannot orphan the
   volatile deferred list: recovery moves the registry into the adoption
   journal ({!Cxlshm.Recovery}), retire stamps intact, for a successor to
   adopt. One writing handle per client — the registry is per-cid. *)

(* The registry's high-water word bounds the scan: every slot at or above
   it is free without being read. Ascending, so consecutive loads stay on
   the same or next line and stream; the free list comes out in ascending
   slot order, and slots past it are taken in order from the word up. *)
let scan_park_free (ctx : Ctx.t) =
  let lay = ctx.Ctx.lay in
  let cid = ctx.Ctx.cid in
  let hw = Recovery.park_high_water ctx ~cid in
  let free = ref [] in
  for k = 0 to hw - 1 do
    if Ctx.load ctx (Layout.park_slot_rr lay cid k) = 0 then free := k :: !free
  done;
  (List.rev !free, hw)

(* Publish {stamp, rr} in slot [k]. A slot at or above the high-water word
   raises the word first, before the fence that orders the stamp before
   the rr commit word, so no scan bounded by the word can miss the slot.
   The [park_free] list is LIFO, so slots stay low and the common case (a
   reused slot below the mirror) writes nothing extra. *)
let park_publish h k ~stamp rr =
  let lay = h.ctx.Ctx.lay in
  let cid = h.ctx.Ctx.cid in
  let raise_hw () =
    if k >= h.park_hw then begin
      Ctx.store h.ctx (Layout.park_hw lay cid) (k + 1);
      h.park_hw <- k + 1
    end
  in
  Ctx.store h.ctx (Layout.park_slot_stamp lay cid k) stamp;
  if not !mutation_park_hw_late then raise_hw ();
  Ctx.fence h.ctx;
  Ctx.store h.ctx (Layout.park_slot_rr lay cid k) rr;
  Ctx.crash_point h.ctx Fault.Park_after_append;
  if !mutation_park_hw_late then raise_hw ()

let park_register h ~stamp rr =
  match h.park_free with
  | k :: rest ->
      h.park_free <- rest;
      park_publish h k ~stamp rr;
      k
  | [] when h.park_hw < Layout.park_capacity h.ctx.Ctx.lay ->
      let k = h.park_hw in
      park_publish h k ~stamp rr;
      k
  | [] ->
      (* Bounded registry: the record stays parked volatile-only — correct
         while this client lives, unrecoverable for adoption if it dies. *)
      Logs.warn (fun m ->
          m "%s: parked-record registry full (client %d); parking \
             volatile-only" name h.ctx.Ctx.cid);
      -1

let park_clear h slot =
  if slot >= 0 then begin
    Ctx.store h.ctx (Layout.park_slot_rr h.ctx.Ctx.lay h.ctx.Ctx.cid slot) 0;
    h.park_free <- slot :: h.park_free
  end

let create ctx ~buckets ~partitions ~value_words =
  if buckets < 1 || partitions < 1 || value_words < 1 then
    invalid_arg "Cxl_kv.create";
  let data_words = buckets + 2 + partitions in
  let r = Shm.cxl_malloc_words ctx ~data_words ~emb_cnt:buckets () in
  let store =
    { index_obj = Cxl_ref.obj r; buckets; partitions; value_words }
  in
  Ctx.store ctx (idx_word store 0) partitions;
  Ctx.store ctx (idx_word store 1) value_words;
  for p = 0 to partitions - 1 do
    Ctx.store ctx (writer_word store p) 0
  done;
  let park_free, park_hw = scan_park_free ctx in
  let handle =
    {
      ctx;
      store;
      index_rr = Cxl_ref.rootref r;
      deferred = [];
      park_free;
      park_hw;
    }
  in
  (store, handle)

let open_store ctx store =
  let rr = Alloc.alloc_rootref ctx in
  Refc.attach ctx ~ref_addr:(Rootref.pptr_slot rr) ~refed:store.index_obj;
  let park_free, park_hw = scan_park_free ctx in
  { ctx; store; index_rr = rr; deferred = []; park_free; park_hw }

(* Hazard-era quiesce (§5.4): a parked record may only be recycled once
   every announced reader era has moved past its retire stamp — otherwise
   a reader paused on the record could observe the block reused for an
   unrelated object. Dead readers do not pin: [Hazard.min_announced]
   ignores announcements of condemned clients. *)
let quiesce h =
  let safe = Hazard.min_announced h.ctx in
  let keep, free =
    if !mutation_unconditional_quiesce then ([], h.deferred)
    else List.partition (fun (stamp, _, _) -> stamp >= safe) h.deferred
  in
  List.iter
    (fun (_, slot, pref) ->
      (* Registry entry first, reference second: a crash in between leaves
         an unregistered live rootref for the rootref scan — already past
         its quiescent era, so the scan's release is safe. *)
      park_clear h slot;
      Cxl_ref.drop pref)
    free;
  h.deferred <- keep

let deferred_count h = List.length h.deferred

let close h =
  (* Quiesced use only: force-drops whatever is still parked, so no reader
     may be mid-walk. A departing writer with live readers hands its parked
     records to a successor first (see {!handoff_deferred}). *)
  List.iter
    (fun (_, slot, pref) ->
      park_clear h slot;
      Cxl_ref.drop pref)
    h.deferred;
  h.deferred <- [];
  Reclaim.release_rootref h.ctx h.index_rr

let claim_partition h p =
  Ctx.cas h.ctx (writer_word h.store p) ~expected:0 ~desired:(h.ctx.Ctx.cid + 1)

let takeover_partition h p =
  let w = writer_word h.store p in
  let rec loop () =
    let cur = Ctx.load h.ctx w in
    cur = h.ctx.Ctx.cid + 1
    || Ctx.cas h.ctx w ~expected:cur ~desired:(h.ctx.Ctx.cid + 1)
    || loop ()
  in
  loop ()

let writer_of_partition h p =
  let v = Ctx.load h.ctx (writer_word h.store p) in
  if v = 0 then None else Some (v - 1)

let check_writer h key =
  let p = partition_of_key h.store key in
  if Ctx.load h.ctx (writer_word h.store p) <> h.ctx.Ctx.cid + 1 then
    failwith
      (Printf.sprintf "Cxl_kv: client %d is not the writer of partition %d"
         h.ctx.Ctx.cid p)

let find h key =
  let rec walk r =
    if r = 0 then None
    else begin
      !walk_hook ();
      if Ctx.load h.ctx (rec_key r) = key then Some r
      else walk (Ctx.load h.ctx (rec_next r))
    end
  in
  walk (Ctx.load h.ctx (bucket_slot h.store (bucket_of h.store key)))

let get h ~key =
  Hazard.with_protection h.ctx (fun () ->
      match find h key with
      | None -> None
      | Some r -> Some (Ctx.load h.ctx (rec_val r 0)))

let get_all_words h ~key =
  Hazard.with_protection h.ctx (fun () ->
      match find h key with
      | None -> None
      | Some r ->
          Some
            (Array.init h.store.value_words (fun i ->
                 Ctx.load h.ctx (rec_val r i))))

let write_value h r value =
  (* Full value width is written, modelling YCSB-size payload traffic. *)
  for i = 0 to h.store.value_words - 1 do
    Ctx.store h.ctx (rec_val r i) (value + i)
  done

let find_with_prev h key =
  let slot0 = bucket_slot h.store (bucket_of h.store key) in
  let rec walk prev_slot r =
    if r = 0 then None
    else begin
      !walk_hook ();
      if Ctx.load h.ctx (rec_key r) = key then Some (prev_slot, r)
      else walk (rec_next r) (Ctx.load h.ctx (rec_next r))
    end
  in
  walk slot0 (Ctx.load h.ctx slot0)

(* Park a soon-to-be-unlinked record behind a fresh counted reference.
   Must run BEFORE the unlink: the park reference is what guarantees the
   unlink can never drop the record to count zero while a reader may still
   hold it. The record keeps its own next-link until it is finally
   reclaimed, so a reader paused on it still reaches the chain tail. *)
let park_record h r =
  let rr = Alloc.alloc_rootref h.ctx in
  Refc.attach h.ctx ~ref_addr:(Rootref.pptr_slot rr) ~refed:r;
  let stamp = Hazard.retire_epoch h.ctx in
  let slot = park_register h ~stamp rr in
  h.deferred <- (stamp, slot, Cxl_ref.of_rootref h.ctx rr) :: h.deferred

(* Insert a freshly allocated record for [key], either replacing [old]
   in-chain (§5.4 change) or prepending at the bucket. *)
let insert_fresh h ~key ~value ~existing =
  let rr, fresh =
    Alloc.alloc_obj h.ctx ~data_words:(2 + h.store.value_words) ~emb_cnt:1
  in
  Ctx.store h.ctx (rec_key fresh) key;
  write_value h fresh value;
  (match existing with
  | Some (prev_slot, old) ->
      park_record h old;
      let next = Ctx.load h.ctx (rec_next old) in
      if next <> 0 then Refc.attach h.ctx ~ref_addr:(rec_next fresh) ~refed:next;
      ignore (Refc.change h.ctx ~ref_addr:prev_slot ~from_obj:old ~to_obj:fresh)
  | None ->
      let slot = bucket_slot h.store (bucket_of h.store key) in
      let head = Ctx.load h.ctx slot in
      if head = 0 then Refc.attach h.ctx ~ref_addr:slot ~refed:fresh
      else begin
        Refc.attach h.ctx ~ref_addr:(rec_next fresh) ~refed:head;
        ignore (Refc.change h.ctx ~ref_addr:slot ~from_obj:head ~to_obj:fresh)
      end);
  (* The index keeps the record alive; drop our RootRef. *)
  Reclaim.release_rootref h.ctx rr

let put h ~key ~value =
  check_writer h key;
  Hazard.with_protection h.ctx (fun () ->
      match find h key with
      | Some r -> write_value h r value
      | None -> insert_fresh h ~key ~value ~existing:None)

let put_cow h ~key ~value =
  check_writer h key;
  Hazard.with_protection h.ctx (fun () ->
      insert_fresh h ~key ~value ~existing:(find_with_prev h key))

let rmw h ~key ~delta =
  check_writer h key;
  Hazard.with_protection h.ctx (fun () ->
      match find h key with
      | Some r ->
          let old = Ctx.load h.ctx (rec_val r 0) in
          write_value h r (old + delta);
          Some old
      | None ->
          insert_fresh h ~key ~value:delta ~existing:None;
          None)

let delete h ~key =
  check_writer h key;
  Hazard.with_protection h.ctx (fun () ->
      let slot0 = bucket_slot h.store (bucket_of h.store key) in
      let rec walk prev_slot r =
        if r = 0 then false
        else begin
          !walk_hook ();
          if Ctx.load h.ctx (rec_key r) = key then begin
            park_record h r;
            let next = Ctx.load h.ctx (rec_next r) in
            ignore
              (if next = 0 then Refc.detach h.ctx ~ref_addr:prev_slot ~refed:r
               else
                 Refc.change h.ctx ~ref_addr:prev_slot ~from_obj:r ~to_obj:next);
            true
          end
          else walk (rec_next r) (Ctx.load h.ctx (rec_next r))
        end
      in
      walk slot0 (Ctx.load h.ctx slot0))

(* ------------------------------------------------------------------ *)
(* Shard handoff (planned leave): the departing writer's parked records
   ride the §5.2 batched transfer queue to a successor, which re-parks
   them under its own identity. Reader protection survives the handoff:
   the queue slot holds a counted reference for the flight, and the
   adopter re-stamps with a fresh (larger) retire epoch, so no reader
   protected against the original retirement can be exposed. *)

let handoff_deferred h q =
  match h.deferred with
  | [] -> 0
  | parked ->
      let sent, _why =
        Transfer.send_batch q (List.map (fun (_, _, pref) -> pref) parked)
      in
      (* Dense-prefix semantics: exactly the first [sent] entries moved.
         Drop the local reference and registry slot for those — the
         successor re-registers them under its own identity — and keep the
         retained suffix with its ORIGINAL retire stamps and registry
         slots. Re-stamping (or re-registering) the suffix here would
         double-handle a partial send: the record would appear both
         re-parked and in-flight, and a fresh stamp would not widen safety
         while a stale slot clear could orphan the entry. *)
      List.iteri
        (fun i (_, slot, pref) ->
          if i < sent then begin
            park_clear h slot;
            Cxl_ref.drop pref
          end)
        parked;
      h.deferred <- List.filteri (fun i _ -> i >= sent) parked;
      sent

let adopt_deferred h q ~max =
  match Transfer.receive_batch q ~max with
  | Transfer.Batch_empty | Transfer.Batch_drained -> 0
  | Transfer.Received_batch refs ->
      let stamp = Hazard.retire_epoch h.ctx in
      List.iter
        (fun pref ->
          let slot = park_register h ~stamp (Cxl_ref.rootref pref) in
          h.deferred <- (stamp, slot, pref) :: h.deferred)
        refs;
      List.length refs

(* Successor side of crash adoption: claim unclaimed adoption-journal
   entries (recovery parked them there from the dead writer's registry,
   original retire stamps intact) and re-park them under this handle. The
   claim CAS, the registry re-append and the journal clear are separated
   by labeled crash points; {!Cxlshm.Recovery} resolves a successor that
   dies between any two (registry presence decides whether the move
   committed). The scan stops at the journal's high-water word; an entry
   recovery publishes past the word read here waits for the next call. *)
let adopt_recovered h =
  let ctx = h.ctx in
  let lay = ctx.Ctx.lay in
  let cid = ctx.Ctx.cid in
  let n = ref 0 in
  for k = 0 to Recovery.journal_high_water ctx - 1 do
    let rr_addr = Layout.adopt_slot_rr lay k in
    let claim_addr = Layout.adopt_slot_claim lay k in
    let rr = Ctx.load ctx rr_addr in
    if
      rr <> 0
      && Ctx.load ctx claim_addr = 0
      && Ctx.cas ctx claim_addr ~expected:0 ~desired:(cid + 1)
    then begin
      Ctx.crash_point ctx Fault.Adopt_after_claim;
      if Rootref.in_use ctx rr then begin
        let stamp = Ctx.load ctx (Layout.adopt_slot_stamp lay k) in
        let slot = park_register h ~stamp rr in
        if slot < 0 then
          (* No registry room: release the claim, leave the entry for
             another successor or the monitor drain. *)
          Ctx.store ctx claim_addr 0
        else begin
          Ctx.crash_point ctx Fault.Adopt_after_append;
          h.deferred <- (stamp, slot, Cxl_ref.of_rootref ctx rr) :: h.deferred;
          Ctx.store ctx rr_addr 0;
          Ctx.store ctx (Layout.adopt_slot_stamp lay k) 0;
          Ctx.store ctx claim_addr 0;
          incr n
        end
      end
      else begin
        (* Stale entry (rootref already freed elsewhere): clear it. *)
        Ctx.store ctx rr_addr 0;
        Ctx.store ctx (Layout.adopt_slot_stamp lay k) 0;
        Ctx.store ctx claim_addr 0
      end
    end
  done;
  !n

let iter h f =
  Hazard.with_protection h.ctx (fun () ->
      for b = 0 to h.store.buckets - 1 do
        let rec walk r =
          if r <> 0 then begin
            !walk_hook ();
            f ~key:(Ctx.load h.ctx (rec_key r))
              ~value:(Ctx.load h.ctx (rec_val r 0));
            walk (Ctx.load h.ctx (rec_next r))
          end
        in
        walk (Ctx.load h.ctx (bucket_slot h.store b))
      done)

let keys h =
  let acc = ref [] in
  iter h (fun ~key ~value:_ -> acc := key :: !acc);
  List.sort compare !acc

let size_estimate h =
  let total = ref 0 in
  Hazard.with_protection h.ctx (fun () ->
      for b = 0 to h.store.buckets - 1 do
        let rec walk r =
          if r <> 0 then (incr total; walk (Ctx.load h.ctx (rec_next r)))
        in
        walk (Ctx.load h.ctx (bucket_slot h.store b))
      done);
  !total
