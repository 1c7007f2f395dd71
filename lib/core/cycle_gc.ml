type report = { roots : int; marked : int; collected : int }

let pp_report ppf r =
  Format.fprintf ppf "roots=%d marked=%d collected=%d" r.roots r.marked
    r.collected

let collect (ctx : Ctx.t) =
  let mem = ctx.Ctx.mem and lay = ctx.Ctx.lay in
  let roots = Walk.roots mem lay in
  (* A wild root or embedded word names no block: it is neither marked nor
     followed, so the sweep below cannot be led into a header or past the
     arena. *)
  let marked = Walk.reach mem lay roots ~on_wild:(fun _ _ -> ()) in
  (* Sweep: a positive count outside the marked set can never reach zero —
     cycle garbage. Zero its embedded slots without detaching (its peers
     are dying with it) and reclaim the block. *)
  let doomed = ref [] in
  Walk.iter_blocks mem lay (fun ~seg:_ k b ->
      match k with
      | Walk.Class _ | Walk.Huge ->
          if
            Obj_header.ref_cnt_of (Ctx.load ctx (Obj_header.header_of_obj b)) > 0
            && not (Hashtbl.mem marked b)
          then doomed := b :: !doomed
      | Walk.Unused | Walk.Rootrefs | Walk.Quarantined | Walk.Junk _ -> ());
  List.iter
    (fun b ->
      let emb =
        Obj_header.meta_emb_cnt (Ctx.load ctx (Obj_header.meta_of_obj b))
      in
      for i = 0 to emb - 1 do
        Ctx.store ctx (Obj_header.emb_slot b i) 0
      done)
    !doomed;
  List.iter (fun b -> Alloc.free_obj_block ctx b) !doomed;
  {
    roots = List.length roots;
    marked = Hashtbl.length marked;
    collected = List.length !doomed;
  }
