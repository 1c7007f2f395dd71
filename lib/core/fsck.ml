(* Offline arena verifier and repairer.

   [Validate] answers "is this arena consistent?"; this module makes it so
   again after device-level damage that crash recovery alone cannot undo —
   torn object headers, values swallowed by stuck media, wild pointers into
   pages whose metadata no longer parses. It assumes the pool is quiesced
   (no live clients, fault injection disarmed) and works in passes, each
   idempotent, from raw structure up to the reference graph:

     0. segment metadata sanity (state / occupied in range)
     1. page geometry: a page whose kind/block_words/capacity disagree is
        quarantined — metadata zeroed, kind set to [Config.kind_quarantined]
        so allocation, validation and reclaim all skip the frame; torn
        object headers (ref_cnt > 0 but implausible meta) are cleared
     1.6 high-water words: a park-registry or adoption-journal entry at
        or above its structure's high-water word raises the word
     2. a crash-recovery sweep of every recorded client, exactly as
        [Shm.load] does — half-done transactions resolve here
     2.7 adoption journal and park registries: faulty entries cleared
     3. mark from the durable roots (RootRefs, queue directory, named
        roots): wild references are cleared at their holder, unreachable
        ref_cnt > 0 objects are freed, and every reachable object's count
        is rewritten to its actual number of holders
     4. free-structure rebuild: per-page free chains are reconstructed from
        block liveness, cross-client free stacks and redo logs are zeroed,
        orphaned huge-continuation segments are released
     5. POTENTIAL_LEAKING scan, then a final [Validate.run]

   Every pass enumerates through [Walk], called afresh after each pass
   that writes, so later passes see the image the earlier ones repaired.

   Repair is deliberately lossy where the damage is lossy: a torn header
   cannot be un-torn, so the block is either resurrected with its holder
   count or freed; fsck restores the arena's invariants, not its data. *)

module Mem = Cxlshm_shmem.Mem

type report = {
  seg_meta_fixed : int;
  pages_quarantined : int;
  page_meta_fixed : int;
  torn_headers_cleared : int;
  clients_swept : int;
  sweep_errors : int;
  wild_refs_cleared : int;
  unreachable_freed : int;
  counts_fixed : int;
  chains_rebuilt : int;
  stacks_cleared : int;
  trace_rings_reset : int;
  adopt_fixed : int;
  validation : Validate.t;
}

let clean r = Validate.is_clean r.validation

let pp ppf r =
  Format.fprintf ppf
    "seg-meta=%d quarantined=%d page-meta=%d torn=%d swept=%d(sweep-errs=%d) \
     wild=%d freed=%d counts=%d chains=%d stacks=%d rings=%d adopt=%d | %a"
    r.seg_meta_fixed r.pages_quarantined r.page_meta_fixed
    r.torn_headers_cleared r.clients_swept r.sweep_errors r.wild_refs_cleared
    r.unreachable_freed r.counts_fixed r.chains_rebuilt r.stacks_cleared
    r.trace_rings_reset r.adopt_fixed Validate.pp r.validation

(* ------------------------------------------------------------------ *)

let repair (ctx : Ctx.t) =
  let mem = ctx.Ctx.mem and lay = ctx.Ctx.lay in
  let cfg = lay.Layout.cfg in
  (* Offline servicing: no faults fire while fsck runs (the damage they
     already did is exactly what we are here to fix). *)
  Mem.set_fault_injection mem false;
  let peek = Mem.unsafe_peek mem and poke = Mem.unsafe_poke mem in
  let segf = ref 0 and quar = ref 0 and pmeta = ref 0 and torn = ref 0 in
  let swept = ref 0 and swerr = ref 0 and wild = ref 0 and freed = ref 0 in
  let counts = ref 0 and chains = ref 0 and stacks = ref 0 and rings = ref 0 in
  let adopt = ref 0 in
  (* Zero [words] unless they already are, counting one fix. *)
  let clear counter words =
    if List.exists (fun w -> peek w <> 0) words then begin
      List.iter (fun w -> poke w 0) words;
      incr counter
    end
  in
  let release_seg s =
    poke (Layout.seg_state lay s) 0;
    poke (Layout.seg_occupied lay s) 0
  in

  (* ---- pass 0: segment metadata sanity ---- *)
  Walk.iter_segments mem lay (fun s _ ->
      if Walk.seg_state mem lay s = None then begin
        (* unknown state: pessimistically POTENTIAL_LEAKING so the scan of
           pass 5 walks the segment's blocks *)
        poke (Layout.seg_state lay s) 3;
        incr segf
      end;
      let occ = peek (Layout.seg_occupied lay s) in
      if occ < 0 || occ > cfg.Config.max_clients then
        clear segf [ Layout.seg_occupied lay s ]);

  (* ---- pass 1: page geometry and torn headers ---- *)
  let zero_page_meta gid =
    poke (Layout.page_free lay ~gid) 0;
    poke (Layout.page_used lay ~gid) 0;
    poke (Layout.page_capacity lay ~gid) 0;
    poke (Layout.page_block_words lay ~gid) 0;
    poke (Layout.page_aux lay ~gid) 0;
    poke (Layout.page_aux2 lay ~gid) 0
  in
  let quarantine gid =
    zero_page_meta gid;
    poke (Layout.page_kind lay ~gid) (Config.kind_quarantined cfg);
    incr quar
  in
  (* An in-use header whose meta word cannot describe an object of this
     page's class is torn: clear it to "free block, empty meta" — the
     mark pass then either resurrects it (it still has holders) or the
     chain rebuild absorbs it. *)
  let plausible_meta ~kind ~bw meta =
    let dw = Obj_header.meta_data_words meta in
    Obj_header.meta_kind meta = kind
    && Obj_header.meta_emb_cnt meta <= dw
    && dw >= 1
    && Config.header_words + dw <= bw
  in
  let empty_meta ~kind ~bw =
    Obj_header.pack_meta ~kind ~emb_cnt:0
      ~data_words:(bw - Config.header_words)
  in
  Walk.iter_pages mem lay (fun ~gid k ->
      let bw = peek (Layout.page_block_words lay ~gid) in
      let cap = peek (Layout.page_capacity lay ~gid) in
      let geometry_ok ebw = bw = ebw && cap = cfg.Config.page_words / ebw in
      match k with
      | Walk.Unused | Walk.Quarantined ->
          if bw <> 0 || cap <> 0 || peek (Layout.page_free lay ~gid) <> 0
          then begin
            (* torn Page.init/reset: kind is published last, so a non-zero
               remainder under an unused kind is half-written garbage *)
            zero_page_meta gid;
            incr pmeta
          end
      | Walk.Class c when geometry_ok (Config.class_block_words cfg c) ->
          let kind = Config.kind_of_class c in
          List.iter
            (fun b ->
              if Obj_header.ref_cnt_of (peek b) > 0
                 && not (plausible_meta ~kind ~bw (peek (b + 1)))
              then begin
                poke b 0;
                poke (b + 1) (empty_meta ~kind ~bw);
                incr torn
              end)
            (Walk.page_blocks mem lay ~gid)
      | Walk.Rootrefs when geometry_ok Config.rootref_words ->
          (* RootRef state words only carry {in_use, local_cnt}; stray bits
             mean a torn store landed *)
          List.iter
            (fun b ->
              if Rootref.peek_in_use mem b && not (Rootref.well_formed (peek b))
              then begin
                poke b 0;
                poke (b + 1) 0;
                incr torn
              end)
            (Walk.page_blocks mem lay ~gid)
      | Walk.Class _ | Walk.Rootrefs | Walk.Huge | Walk.Junk _ ->
          (* geometry disagrees with the kind, a huge kind outside a huge
             segment, or junk *)
          quarantine gid);
  Walk.iter_segments mem lay (fun s role ->
      if role = Walk.Huge_head then begin
        let obj = Walk.huge_obj lay s in
        if Obj_header.ref_cnt_of (peek obj) > 0
           && Obj_header.meta_kind (peek (Obj_header.meta_of_obj obj))
              <> Config.kind_huge cfg
        then begin
          poke obj 0;
          (* left at count 0: the mark pass frees the whole run *)
          incr torn
        end;
        (* Re-anchor the head page's span word to the run the segment
           states actually describe — a run half-released by a crashed
           [free_huge] shrinks here — then hold the true length (page_aux2)
           to that span and to the packed meta field. *)
        let gid0 = Layout.page_gid lay ~seg:s ~page:0 in
        let span = Walk.huge_span mem lay s in
        if peek (Layout.page_aux lay ~gid:gid0) <> span then begin
          poke (Layout.page_aux lay ~gid:gid0) span;
          incr pmeta
        end;
        if
          peek (Layout.page_aux2 lay ~gid:gid0) = 0
          || not (Walk.huge_length_ok mem lay s)
        then begin
          let max_dw = Walk.huge_max_data_words lay ~span in
          let meta_dw = Obj_header.meta_data_words (peek (Obj_header.meta_of_obj obj)) in
          poke (Layout.page_aux2 lay ~gid:gid0)
            (if meta_dw >= 1 && meta_dw <= max_dw then meta_dw else max_dw);
          incr pmeta
        end
      end);

  (* ---- pass 1.5: trace-ring integrity ----
     Checked before the recovery sweep because the sweep itself may append
     events (the service context traces its recovery spans). A ring with a
     negative cursor or an undecodable published slot has been hit by the
     same damage the other passes repair; the events are forensics, not
     invariants, so the whole ring is simply zeroed. *)
  for cid = 0 to cfg.Config.max_clients - 1 do
    if not (Trace.ring_ok mem lay ~cid) then begin
      poke (Layout.trace_cursor lay cid) 0;
      for k = 0 to cfg.Config.trace_slots - 1 do
        let slot = Layout.trace_slot lay cid k in
        for w = 0 to Layout.trace_slot_words - 1 do
          poke (slot + w) 0
        done
      done;
      incr rings
    end
  done;

  (* ---- pass 1.6: high-water words ----
     An occupied park-registry or adoption-journal slot at or above its
     high-water word is invisible to every bounded scan, the recovery
     sweep's included: the sweep would neither journal such a registry
     entry nor see such a journal entry, and could append over it. So the
     word is raised over the slot here, before the sweep, rather than with
     the entry repairs of pass 2.7; an entry the raise exposes is then
     journaled, kept or cleared by the usual rule. *)
  let above =
    List.exists (function Walk.Above_high_water _ -> true | _ -> false)
  in
  let raise_over addr k =
    if peek addr <= k then begin
      poke addr (k + 1);
      incr adopt
    end
  in
  Walk.iter_parked mem lay (fun ~cid k ~rr:_ faults ->
      if above faults then raise_over (Layout.park_hw lay cid) k);
  Walk.iter_journal mem lay (fun i ~rr:_ faults ->
      if above faults then raise_over (Layout.adopt_hw lay) i);

  (* ---- pass 2: crash-recovery sweep of every recorded client ---- *)
  let force_unlock () =
    poke (Layout.recovery_lock lay) 0;
    poke (Layout.recovery_failed lay) 0;
    poke (Layout.recovery_phase lay) 0
  in
  (try ignore (Recovery.resume_interrupted ctx)
   with _ ->
     incr swerr;
     force_unlock ());
  for cid = 0 to cfg.Config.max_clients - 1 do
    if Client.status ctx ~cid <> Client.Slot_free then begin
      Client.declare_failed ctx ~cid;
      try
        ignore (Recovery.recover ctx ~failed_cid:cid);
        incr swept
      with _ ->
        (* recovery choked on damage it was never designed for; the later
           structural passes still run, so just make the client slot and
           the lock sane and move on *)
        incr swerr;
        Client.mark_recovered ctx ~cid;
        force_unlock ()
    end
  done;

  (* ---- pass 2.7: adoption journal and park registries ----
     The sweep above recovered every recorded client, which moved each
     parked-record registry into the adoption journal; any registry
     residue left now is damage. An entry [Walk] finds a fault in is
     cleared (its claim alone when only the claim is bad), as is the stamp
     or claim of an empty slot. Sound journal entries are preserved —
     their rootrefs keep the parked records alive through the mark pass
     and a future successor can still adopt them. *)
  Walk.iter_parked mem lay (fun ~cid k ~rr faults ->
      if rr = 0 || faults <> [] then
        clear adopt [ Layout.park_slot_rr lay cid k; Layout.park_slot_stamp lay cid k ]);
  Walk.iter_journal mem lay (fun i ~rr faults ->
      let claim = Layout.adopt_slot_claim lay i in
      if rr = 0 || List.exists (function Walk.Bad_claim _ -> false | _ -> true) faults
      then clear adopt [ Layout.adopt_slot_rr lay i; Layout.adopt_slot_stamp lay i; claim ]
      else if faults <> [] then clear adopt [ claim ]);

  (* ---- pass 3: mark from durable roots ---- *)
  (* Wild references are cleared at their holder (a dead client's
     RootRefs were already dropped by the recovery sweep; what is left is
     either a ghost we keep as a holder — harmless — or damage). *)
  let valid = Walk.block_base_ok mem lay in
  wild := !wild + Transfer.clear_wild_directory_refs mem lay ~valid;
  wild := !wild + Named_roots.clear_wild_directory_refs mem lay ~valid;
  let expected =
    Walk.reach mem lay (Walk.roots mem lay) ~on_wild:(fun h _ ->
        incr wild;
        match h with
        | Walk.From_rootref rr ->
            poke rr 0;
            poke (rr + 1) 0
        | Walk.From_slot (obj, i) -> poke (Obj_header.emb_slot obj i) 0
        | Walk.From_queue_directory | Walk.From_named_root -> ())
  in
  (* Sweep: unreachable counted objects are freed, reachable ones get their
     count rewritten to the number of holders actually found. lcid/lera are
     reset to "never touched" — every transaction was resolved in pass 2. *)
  let fix_count b exp =
    let hdr = peek b in
    let want =
      Obj_header.pack { Obj_header.lcid = None; lera = 0; ref_cnt = exp }
    in
    if hdr <> want then begin
      poke b want;
      if Obj_header.ref_cnt_of hdr <> exp then incr counts
    end
  in
  (* A continuation's page metadata words held payload: wipe them along
     with the head's before the segment goes back to the arena. *)
  let wipe_release s =
    List.iter
      (fun gid ->
        poke (Layout.page_kind lay ~gid) Config.kind_unused;
        zero_page_meta gid)
      (Walk.seg_pages lay s);
    release_seg s
  in
  (* trust segment states, not the (possibly stuck) aux span word *)
  let release_huge_run head =
    for k = Walk.huge_span mem lay head - 1 downto 0 do
      wipe_release (head + k)
    done
  in
  Walk.iter_blocks mem lay (fun ~seg k b ->
      match (Hashtbl.find_opt expected b, k) with
      | Some exp, (Walk.Huge | Walk.Class _) -> fix_count b exp
      | None, Walk.Huge ->
          if Obj_header.ref_cnt_of (peek b) > 0 then incr freed;
          release_huge_run seg
      | None, Walk.Class _ ->
          (* pass 4 chains the now-dead block and clears the rest of it *)
          if Obj_header.ref_cnt_of (peek b) > 0 then begin
            poke b 0;
            incr freed
          end
      | _, (Walk.Unused | Walk.Rootrefs | Walk.Quarantined | Walk.Junk _) -> ());
  (* a released huge run may leave cont segments whose head was damaged
     away; release them too (ascending order heals chains) *)
  Walk.iter_segments mem lay (fun s role ->
      if role = Walk.Huge_cont && (s = 0 || Walk.role mem lay (s - 1) = Walk.Plain)
      then begin
        wipe_release s;
        incr segf
      end);

  (* ---- pass 4: rebuild free structures from liveness ---- *)
  Walk.iter_segments mem lay (fun s _ -> clear stacks [ Layout.seg_client_free lay s ]);
  (* Domain shard stacks are rebuilt the same way as the cross-client
     stacks: drop them wholesale — every dead block re-enters its page
     chain below, and the stamps that made parked entries stealable are
     cleared there too, so nothing keeps pinning segments. *)
  for d = 0 to cfg.Config.num_domains - 1 do
    for c = 0 to Config.num_classes cfg - 1 do
      clear stacks [ Layout.domain_class_head lay d c ]
    done
  done;
  Walk.iter_pages mem lay (fun ~gid k ->
      let is_rr = k = Walk.Rootrefs in
      match k with
      | Walk.Rootrefs | Walk.Class _ ->
          let off = Page.next_slot_offset ~kind_rootref:is_rr in
          let old_head = peek (Layout.page_free lay ~gid) in
          let old_used = peek (Layout.page_used lay ~gid) in
          let blocks = Walk.page_blocks mem lay ~gid in
          (* dead blocks chained in address order, rebuilt from the top *)
          let head, nfree =
            List.fold_right
              (fun b (head, nfree) ->
                if Walk.live mem k b then (head, nfree)
                else begin
                  poke b 0;
                  if not is_rr then begin
                    poke (b + 1) 0;
                    (* A stale shard stamp on a dead block would pin the
                       segment against the §5.3 scan forever. *)
                    poke (Shard.stamp_slot b) 0
                  end;
                  poke (b + off) head;
                  (b, nfree + 1)
                end)
              blocks (0, 0)
          in
          let used = List.length blocks - nfree in
          poke (Layout.page_free lay ~gid) head;
          poke (Layout.page_used lay ~gid) used;
          if old_head <> head || old_used <> used then incr chains
      | Walk.Unused | Walk.Huge | Walk.Quarantined | Walk.Junk _ -> ());
  for cid = 0 to cfg.Config.max_clients - 1 do
    Redo_log.clear_for ctx ~cid;
    (* Retirement journals refer to rootrefs the rebuild above may have
       freed; a sealed batch is meaningless after a full rebuild. *)
    poke (Layout.retire_count lay cid) 0
  done;
  force_unlock ();

  (* ---- pass 5: leak scan, then the verdict ---- *)
  (try ignore (Reclaim.scan_all ctx ~is_client_alive:(fun _ -> false))
   with _ -> incr swerr);
  {
    seg_meta_fixed = !segf;
    pages_quarantined = !quar;
    page_meta_fixed = !pmeta;
    torn_headers_cleared = !torn;
    clients_swept = !swept;
    sweep_errors = !swerr;
    wild_refs_cleared = !wild;
    unreachable_freed = !freed;
    counts_fixed = !counts;
    chains_rebuilt = !chains;
    stacks_cleared = !stacks;
    trace_rings_reset = !rings;
    adopt_fixed = !adopt;
    validation = Validate.run mem lay;
  }
