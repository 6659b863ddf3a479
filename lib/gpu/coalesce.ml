(* Global-memory coalescing model.  GPUs service global accesses in 32-byte
   sectors; a warp reading [n] consecutive 8-byte doubles starting at an
   arbitrary element offset touches a computable number of sectors.  The
   kernel executor and the analytic counter evaluator both count
   transactions through this module so they agree by construction. *)

let sector_bytes = 32
let elems_per_sector ~elem_bytes = sector_bytes / elem_bytes

(** Sectors touched by a contiguous run of [n] elements whose first element
    sits at linear element index [first] (alignment matters: a misaligned
    run straddles one extra sector). *)
let run_sectors ~elem_bytes ~first ~n =
  if n <= 0 then 0
  else begin
    let per = elems_per_sector ~elem_bytes in
    let lo = first / per in
    let hi = (first + n - 1) / per in
    hi - lo + 1
  end

(** Sectors for a strided warp access: each of [lanes] threads reads one
    element, consecutive lanes [stride] elements apart.  With a stride
    beyond one sector every lane pays a full sector — the fully
    uncoalesced worst case (used for column-order halo loads). *)
let strided_sectors ~elem_bytes ~first ~lanes ~stride =
  if lanes <= 0 then 0
  else if stride = 1 then run_sectors ~elem_bytes ~first ~n:lanes
  else begin
    let per = elems_per_sector ~elem_bytes in
    if stride >= per then lanes
    else begin
      (* Partially coalesced: count distinct sectors among lane addresses. *)
      let sectors = Hashtbl.create 8 in
      for lane = 0 to lanes - 1 do
        Hashtbl.replace sectors ((first + (lane * stride)) / per) ()
      done;
      Hashtbl.length sectors
    end
  end

