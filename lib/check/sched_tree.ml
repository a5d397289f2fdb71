open Lb_memory
open Lb_runtime

type fp = { regs : int list; blocking : bool }

(* No closure: [wake] calls this for every sleeping entry on every step. *)
let rec overlap xs ys = match xs with [] -> false | x :: rest -> List.mem x ys || overlap rest ys

let dependent a b = a.blocking || b.blocking || overlap a.regs b.regs

let footprint = function
  | Op.Ll r | Op.Sc (r, _) | Op.Validate r | Op.Swap (r, _) | Op.Write (r, _) -> [ r ]
  | Op.Move (src, dst) -> [ src; dst ]
  | Op.Fence -> []

type bounds = { preempt : int option; fair : int option; length : int option }

let no_bounds = { preempt = None; fair = None; length = None }
let bounded b = b.preempt <> None || b.fair <> None || b.length <> None

let pp_bounds ppf b =
  if not (bounded b) then Format.pp_print_string ppf "unbounded"
  else begin
    let sep = ref false in
    let one name = function
      | None -> ()
      | Some v ->
        if !sep then Format.pp_print_string ppf ", ";
        sep := true;
        Format.fprintf ppf "%s<=%d" name v
    in
    one "preempt" b.preempt;
    one "fair" b.fair;
    one "length" b.length
  end

(* ---- the per-run oracle ---- *)

(* A sleeping process: it was fully explored at some ancestor node and must
   not be rescheduled until a step dependent with its pending one runs. *)
type entry = { sl_pid : int; sl_fp : fp }

let wake sleep fp = List.filter (fun e -> not (dependent e.sl_fp fp)) sleep
let asleep sleep p = List.exists (fun e -> e.sl_pid = p) sleep

(* One committed decision of the current run, with everything the
   backtracking pass needs to re-inspect the position afterwards. *)
type tstep = {
  t_pid : int;
  t_branch : int;
  t_branches : int;
  t_fp : fp;
  t_enabled : int list;
  t_sleep : entry list;  (* sleep set in force before this step. *)
  t_preempts : int;  (* pre-emptive switches strictly before this step. *)
  mutable t_also : int list;  (* mandatory sibling decisions (see [also]). *)
}

type status = Running | Sleep_blocked | Bound_blocked | Deduped

(* ---- the persistent scheduler tree (types; operations further down) ---- *)

(* Happens-before over a trace — program order plus [dependent] — as
   vector clocks in flat int arrays.  Processes get columns in order of
   first appearance.  Row [j] of [c_vc] holds, per column, the last step
   of that process that happens before-or-at step [j] (-1: none), so step
   [i] happens before [j] iff [vc.(j).(col i) >= i].

   Each row joins only a few earlier rows.  Steps on one register are
   pairwise dependent, so they form a chain whose last step dominates the
   rest; blocking steps are dependent with everything, so they form a
   chain too.  A step therefore joins its process's previous step, then
   either the last step of every process (when it is blocking) or the
   last blocking step and the last step on each of its registers —
   exactly the clocks of joining every dependent earlier step.  Each join
   is O(m), so the clocks cost O(len·m·(m + regs per step)) instead of
   testing every earlier step.  [Layout] allocates registers densely, so
   the last step per register is an array over the trace's register
   range. *)
type clocks = {
  c_m : int;  (* columns (distinct processes) *)
  c_pids : int array;  (* column -> pid *)
  c_col : int array;  (* step -> column *)
  c_vc : int array;  (* len x c_m, row-major *)
  c_prev : int array;  (* step -> its process's previous step, or -1 *)
  c_last : int array;  (* column -> its process's last step *)
  c_last_blocking : int;  (* -1: none *)
  c_reg_lo : int;
  c_reg_last : int array;  (* register - c_reg_lo -> last step on it, or -1 *)
  c_cand : int array;  (* scratch of [find_races], one slot per column *)
}

type node = {
  nd_enabled : int list;
  mutable nd_todo : (int * int) list;  (* decisions awaiting exploration *)
  mutable nd_edges : edge list;  (* explored decisions, in DFS order *)
  mutable nd_clean : bool;  (* no todo at or below this node (see [find_next]) *)
  mutable nd_vent : vent option;  (* dedup entry of the state at this node *)
}

and edge = {
  ed_pid : int;
  ed_branch : int;
  ed_fp : fp;
  mutable ed_child : node option;
}

(* What the dedup table remembers about a canonical state (stateful DPOR,
   after Yang et al.): the weakest sleep set it was ever reached with
   (Godefroid's revisit rule), the [(pid, footprint)] of every step known
   to occur below it, and the runs that were cut at it — each cut run's
   prefix must be re-raced against summary entries that arrive later.
   Summary entries are interned as ints (see [interner]); [v_sum] holds
   them newest first, [v_set] answers membership. *)
and vent = {
  mutable v_sleep : int list;
  mutable v_sum : int list;
  v_set : (int, unit) Hashtbl.t;
  mutable v_subs : sub list;
}

and sub = {
  s_trace : tstep array;
  s_nodes : node array;
  s_clocks : clocks;
  s_marks : (vent * int) list;
}

let new_vent sleep = { v_sleep = sleep; v_sum = []; v_set = Hashtbl.create 8; v_subs = [] }

type 'k dpor = {
  d_bounds : bounds;
  (* canonical state, with a hash of all of it in front -> bookkeeping *)
  d_visited : (int * 'k, vent) Hashtbl.t;
  (* (pid, branch, node deciding it) decisions to replay *)
  mutable d_prefix : (int * int * node) list;
  d_div_sleep : entry list;  (* sleep set in force at the divergence point *)
  mutable d_sleep : entry list;
  mutable d_trace : tstep list;  (* reversed *)
  mutable d_depth : int;
  mutable d_preempts : int;
  mutable d_last : int option;
  d_counts : (int, int) Hashtbl.t;
  mutable d_status : status;
  mutable d_marks : (vent * int) list;  (* (state entry, depth) along this run *)
  mutable d_cut : vent option;  (* the covered entry this run was cut at *)
  (* A successful [choose] parks (pid, enabled, prefix branch) here until
     the matching [commit] arrives with the footprint. *)
  mutable d_pending : (int * int list * int option) option;
}

type 'k sched = Dpor of 'k dpor | Sample of int | Replay of int list ref

let sampler ~seed = Sample seed
let replayer entries = Replay (ref entries)

let count d p = Option.value (Hashtbl.find_opt d.d_counts p) ~default:0

let step_in_bounds d ~enabled p =
  let b = d.d_bounds in
  (match b.length with None -> true | Some l -> d.d_depth < l)
  && (match b.preempt with
     | None -> true
     | Some k ->
       let extra =
         match d.d_last with Some q when q <> p && List.mem q enabled -> 1 | _ -> 0
       in
       d.d_preempts + extra <= k)
  && (match b.fair with
     | None -> true
     | Some dd ->
       let least = List.fold_left (fun m q -> min m (count d q)) max_int enabled in
       count d p + 1 - least <= dd)

let choose (s : _ sched) ~step ~enabled =
  match s with
  | Sample seed ->
    if enabled = [] then None else Scheduler.random ~seed ~step ~runnable:enabled
  | Replay remaining ->
    let rec pick () =
      match !remaining with
      | [] -> Scheduler.round_robin ~step ~runnable:enabled
      | pid :: rest ->
        remaining := rest;
        if List.mem pid enabled then Some pid else pick ()
    in
    pick ()
  | Dpor d -> (
    if d.d_status <> Running then None
    else begin
      assert (d.d_pending = None);
      match d.d_prefix with
      | (pid, b, _) :: _ ->
        if not (List.mem pid enabled) then
          failwith "Sched_tree: divergent replay (prefix pid not enabled)";
        d.d_pending <- Some (pid, enabled, Some b);
        Some pid
      | [] -> (
        let awake = List.filter (fun p -> not (asleep d.d_sleep p)) enabled in
        if awake = [] then begin
          d.d_status <- Sleep_blocked;
          None
        end
        else
          match List.filter (step_in_bounds d ~enabled) awake with
          | [] ->
            d.d_status <- Bound_blocked;
            None
          | candidates ->
            (* Prefer continuing the previous process: pre-emption-free by
               construction, which keeps bounded exploration cheap. *)
            let pid =
              match d.d_last with
              | Some q when List.mem q candidates -> q
              | _ -> List.hd candidates
            in
            d.d_pending <- Some (pid, enabled, None);
            Some pid)
    end)

let commit (s : _ sched) ~fp ~branches =
  match s with
  | Sample _ | Replay _ -> 0
  | Dpor d -> (
    match d.d_pending with
    | None -> invalid_arg "Sched_tree.commit: no choice pending"
    | Some (pid, enabled, from_prefix) ->
      d.d_pending <- None;
      let branch = match from_prefix with Some b -> b | None -> 0 in
      let at_divergence =
        from_prefix <> None && List.compare_length_with d.d_prefix 1 = 0
      in
      let sleep_before =
        match from_prefix with
        | None -> d.d_sleep
        | Some _ -> if at_divergence then d.d_div_sleep else []
      in
      d.d_trace <-
        {
          t_pid = pid;
          t_branch = branch;
          t_branches = branches;
          t_fp = fp;
          t_enabled = enabled;
          t_sleep = sleep_before;
          t_preempts = d.d_preempts;
          t_also = [];
        }
        :: d.d_trace;
      (match d.d_last with
      | Some q when q <> pid && List.mem q enabled -> d.d_preempts <- d.d_preempts + 1
      | _ -> ());
      d.d_last <- Some pid;
      Hashtbl.replace d.d_counts pid (count d pid + 1);
      d.d_depth <- d.d_depth + 1;
      (match from_prefix with
      | Some _ ->
        d.d_prefix <- List.tl d.d_prefix;
        if d.d_prefix = [] then d.d_sleep <- wake d.d_div_sleep fp
      | None -> d.d_sleep <- wake d.d_sleep fp);
      branch)

(* A step that silently performs another enabled decision's effect hides
   that decision from every trace, and a decision that never occurs in a
   trace can never be raced — DPOR's backtracking only reverses observed
   steps.  The canonical case is a fence draining the store buffer: the
   drained flush pseudo-decisions vanish from the schedule, so "commit the
   buffered write first, let other processes run, then fence" is never
   explored.  [also] lets the runner declare such absorbed alternatives as
   mandatory siblings of the step just committed; they become todo entries
   like coin branches (not schedule-reducible), restoring completeness. *)
let also (s : _ sched) ~pid =
  match s with
  | Sample _ | Replay _ -> ()
  | Dpor d -> (
    match d.d_trace with
    | [] -> invalid_arg "Sched_tree.also: no committed step"
    | t :: _ -> if not (List.mem pid t.t_also) then t.t_also <- pid :: t.t_also)

(* [Hashtbl.hash] stops after 10 meaningful words, which lumps keys that
   differ only deep in memory or histories into one bucket; hashing the
   whole key once up front keeps the dedup table flat. *)
let visited_key k = (Hashtbl.hash_param 256 256 k, k)

(* The dedup entry of [key ()], created with sleep set [sleep] if new. *)
let entry d key sleep =
  let k = visited_key (key ()) in
  match Hashtbl.find_opt d.d_visited k with
  | Some v -> v
  | None ->
    let v = new_vent sleep in
    Hashtbl.add d.d_visited k v;
    v

let mark (s : _ sched) ~key =
  match s with
  | Sample _ | Replay _ -> ()
  | Dpor d ->
    if d.d_status = Running then begin
      match d.d_prefix with
      | (_, _, node) :: _ ->
        (* Replayed prefix: the state was marked by the run that built
           [node] and aborting the replay would orphan the todo — but this
           run's continuation still lies below it, so remember the position
           for the summary pass. *)
        let v = match node.nd_vent with Some v -> v | None -> entry d key [] in
        d.d_marks <- (v, d.d_depth) :: d.d_marks
      | [] -> (
        let current = List.map (fun e -> e.sl_pid) d.d_sleep in
        let k = visited_key (key ()) in
        match Hashtbl.find_opt d.d_visited k with
        | Some v when List.for_all (fun p -> List.mem p current) v.v_sleep ->
          d.d_status <- Deduped;
          d.d_cut <- Some v
        | Some v ->
          (* Godefroid's revisit rule: re-explore, remembering the weaker
             (intersected) sleep set for future visits. *)
          v.v_sleep <- List.filter (fun p -> List.mem p current) v.v_sleep;
          d.d_marks <- (v, d.d_depth) :: d.d_marks
        | None ->
          let v = new_vent current in
          Hashtbl.add d.d_visited k v;
          d.d_marks <- (v, d.d_depth) :: d.d_marks)
    end

let interrupted (s : _ sched) =
  match s with Sample _ | Replay _ -> false | Dpor d -> d.d_status <> Running

(* ---- the persistent scheduler tree: operations ---- *)

let new_node enabled =
  { nd_enabled = enabled; nd_todo = []; nd_edges = []; nd_clean = false; nd_vent = None }

(* A todo was added at [nodes.(i)] of a run's path: [nodes.(0..i)] are no
   longer clean.  A clean node has only clean descendants, so the walk up
   stops at the first dirty one.  (A run's own path is never clean:
   [find_next] only returns through dirty nodes and new nodes start dirty,
   so this matters for the virtual race pass on older runs' paths.) *)
let dirty nodes i =
  let k = ref i in
  while !k >= 0 && nodes.(!k).nd_clean do
    nodes.(!k).nd_clean <- false;
    decr k
  done

let add_todo nodes i decision =
  nodes.(i).nd_todo <- nodes.(i).nd_todo @ [ decision ];
  dirty nodes i

let has_decision node p =
  List.exists (fun e -> e.ed_pid = p) node.nd_edges
  || List.exists (fun (q, _) -> q = p) node.nd_todo

(* The sleep set in force when a todo of [node] is launched: every process
   other than [skip] whose decisions at [node] are all explored and whose
   subtrees are drained — guaranteed by the DFS order of [find_next], which
   only surfaces a node's todos once every existing subtree is todo-free. *)
let sleep0_of node ~skip =
  let pending p = List.exists (fun (q, _) -> q = p) node.nd_todo in
  let rec gather seen acc = function
    | [] -> List.rev acc
    | e :: rest ->
      if List.mem e.ed_pid seen then gather seen acc rest
      else if e.ed_pid = skip || pending e.ed_pid then gather (e.ed_pid :: seen) acc rest
      else gather (e.ed_pid :: seen) ({ sl_pid = e.ed_pid; sl_fp = e.ed_fp } :: acc) rest
  in
  gather [] [] node.nd_edges

(* Deepest-first: drain every existing subtree before surfacing a node's
   own todos, so [sleep0_of] is sound when a todo is finally launched.  A
   node found empty is marked clean and skipped until [dirty] resets it,
   so drained subtrees are not walked again for every schedule.  The path
   lists each decision with the node that makes it. *)
let rec find_next node path =
  let rec over_edges = function
    | [] -> None
    | e :: rest -> (
      match e.ed_child with
      | Some child when not child.nd_clean -> (
        match find_next child ((e.ed_pid, e.ed_branch, node) :: path) with
        | Some _ as found -> found
        | None -> over_edges rest)
      | _ -> over_edges rest)
  in
  match over_edges node.nd_edges with
  | Some _ as found -> found
  | None -> (
    match node.nd_todo with
    | [] ->
      node.nd_clean <- true;
      None
    | d :: _ -> Some (path, node, d))

(* ---- exhaustive exploration ---- *)

type stats = {
  schedules : int;
  sleep_blocked : int;
  deduped : int;
  elided : int;
  max_depth : int;
}

let exhaustive s = s.elided = 0

let pp_stats ppf s =
  Format.fprintf ppf "%d schedule%s (%d sleep-blocked, %d deduped, %d elided, depth %d)%s"
    s.schedules
    (if s.schedules = 1 then "" else "s")
    s.sleep_blocked s.deduped s.elided s.max_depth
    (if exhaustive s then "" else " [BOUNDED]")

type counters = {
  mutable c_schedules : int;
  mutable c_sleep_blocked : int;
  mutable c_deduped : int;
  mutable c_elided : int;
  mutable c_depth : int;
}

(* Fold a run's trace into the tree, returning the node at each depth.
   Creating a decision's first edge also enqueues its coin siblings:
   branch outcomes are mandatory, not schedule-reducible. *)
let incorporate root trace =
  let len = Array.length trace in
  if len = 0 then [||]
  else begin
    (match !root with
    | None -> root := Some (new_node trace.(0).t_enabled)
    | Some _ -> ());
    let nodes = Array.make len (Option.get !root) in
    let cursor = ref (Option.get !root) in
    for i = 0 to len - 1 do
      nodes.(i) <- !cursor;
      let t = trace.(i) in
      let node = !cursor in
      let edge =
        match
          List.find_opt
            (fun e -> e.ed_pid = t.t_pid && e.ed_branch = t.t_branch)
            node.nd_edges
        with
        | Some e -> e
        | None ->
          let e = { ed_pid = t.t_pid; ed_branch = t.t_branch; ed_fp = t.t_fp; ed_child = None } in
          node.nd_edges <- node.nd_edges @ [ e ];
          node.nd_todo <-
            List.filter (fun (p, b) -> not (p = t.t_pid && b = t.t_branch)) node.nd_todo;
          for b' = 0 to t.t_branches - 1 do
            if
              b' <> t.t_branch
              && (not
                    (List.exists
                       (fun e -> e.ed_pid = t.t_pid && e.ed_branch = b')
                       node.nd_edges))
              && not (List.mem (t.t_pid, b') node.nd_todo)
            then add_todo nodes i (t.t_pid, b')
          done;
          e
      in
      (* Absorbed alternatives (see [also]): mandatory unless the pid is
         asleep here — asleep means the alternative was fully explored at
         an ancestor and nothing dependent ran since, so taking it now
         would only replay a covered interleaving. *)
      List.iter
        (fun p ->
          if (not (asleep t.t_sleep p)) && not (has_decision node p) then
            add_todo nodes i (p, 0))
        t.t_also;
      if i + 1 < len then begin
        (match edge.ed_child with
        | None -> edge.ed_child <- Some (new_node trace.(i + 1).t_enabled)
        | Some _ -> ());
        cursor := Option.get edge.ed_child
      end
    done;
    nodes
  end

(* Would scheduling [p] at trace position [i] respect the bounds?  A
   necessary condition only — the run itself re-checks every later step —
   used to reject todo entries at insertion (counted as elided). *)
let insertion_in_bounds bounds trace i p =
  let steps_of q upto =
    let c = ref 0 in
    for j = 0 to upto - 1 do
      if trace.(j).t_pid = q then incr c
    done;
    !c
  in
  (match bounds.length with None -> true | Some l -> i < l)
  && (match bounds.preempt with
     | None -> true
     | Some k ->
       let extra =
         if i > 0 && trace.(i - 1).t_pid <> p && List.mem trace.(i - 1).t_pid trace.(i).t_enabled
         then 1
         else 0
       in
       trace.(i).t_preempts + extra <= k)
  && (match bounds.fair with
     | None -> true
     | Some dd ->
       let least =
         List.fold_left (fun m q -> min m (steps_of q i)) max_int trace.(i).t_enabled
       in
       steps_of p i + 1 - least <= dd)

let plain_add counters bounds nodes trace i p =
  if not (has_decision nodes.(i) p) then begin
    if insertion_in_bounds bounds trace i p then
      add_todo nodes i (p, 0)
    else counters.c_elided <- counters.c_elided + 1
  end

(* Add a backtracking point, plus — under a pre-emption bound — BPOR's
   conservative companion point: the pre-emptive backtrack may lie outside
   the bound, so also try the start of the pre-empted process's segment,
   where taking [p] costs no extra pre-emption. *)
let add_point counters bounds nodes trace i p =
  plain_add counters bounds nodes trace i p;
  if bounds.preempt <> None && i > 0 then begin
    let prev = trace.(i - 1).t_pid in
    if prev <> p && List.mem prev trace.(i).t_enabled then begin
      let k = ref (i - 1) in
      while !k > 0 && trace.(!k - 1).t_pid = prev do
        decr k
      done;
      if List.mem p trace.(!k).t_enabled && not (asleep trace.(!k).t_sleep p) then
        plain_add counters bounds nodes trace !k p
    end
  end

(* Request process [p] at trace position [i] (thread-level backtracking,
   per Flanagan–Godefroid — [p]'s own steps in between do not shield a
   race, they just mean [p]'s segment must start earlier). *)
let request counters bounds nodes trace i p =
  let t = trace.(i) in
  if asleep t.t_sleep p then ()
  else if List.mem p t.t_enabled then add_point counters bounds nodes trace i p
  else
    (* [p] not schedulable at the race point: conservatively re-arm every
       awake alternative there. *)
    List.iter
      (fun q ->
        if q <> t.t_pid && not (asleep t.t_sleep q) then
          add_point counters bounds nodes trace i q)
      t.t_enabled

(* The row at offset [at] of [dst] := its pointwise max with row [i] of
   [vc] (no-op for [i = -1]). *)
let join (vc : int array) m (dst : int array) at i =
  if i >= 0 then
    for q = 0 to m - 1 do
      let v = vc.((i * m) + q) in
      if v > dst.(at + q) then dst.(at + q) <- v
    done

(* Join the last step on each of [regs]; [reg_last] covers registers
   [lo ..]. *)
let rec join_regs vc m dst at lo reg_last = function
  | [] -> ()
  | r :: rest ->
    let k = r - lo in
    if k >= 0 && k < Array.length reg_last then join vc m dst at reg_last.(k);
    join_regs vc m dst at lo reg_last rest

let rec set_last reg_last lo j = function
  | [] -> ()
  | r :: rest ->
    reg_last.(r - lo) <- j;
    set_last reg_last lo j rest

let rec widen (lo : int ref) (hi : int ref) = function
  | [] -> ()
  | r :: rest ->
    if r < !lo then lo := r;
    if r > !hi then hi := r;
    widen lo hi rest

let clocks ~len ~pid ~fp =
  let pids = Array.make len 0 and col = Array.make len 0 and m = ref 0 in
  let rlo = ref max_int and rhi = ref min_int in
  for j = 0 to len - 1 do
    let p = pid j and k = ref 0 in
    while !k < !m && pids.(!k) <> p do
      incr k
    done;
    if !k = !m then begin
      pids.(!m) <- p;
      incr m
    end;
    col.(j) <- !k;
    widen rlo rhi (fp j).regs
  done;
  let m = !m and rlo = !rlo in
  let vc = Array.make (len * m) (-1) in
  let prev = Array.make len (-1) in
  let last = Array.make m (-1) in
  let reg_last = Array.make (if !rhi < rlo then 0 else !rhi - rlo + 1) (-1) in
  let last_blocking = ref (-1) in
  for j = 0 to len - 1 do
    let p = col.(j) and f = fp j and row = j * m in
    prev.(j) <- last.(p);
    join vc m vc row last.(p);
    if f.blocking then
      for q = 0 to m - 1 do
        join vc m vc row last.(q)
      done
    else begin
      join vc m vc row !last_blocking;
      join_regs vc m vc row rlo reg_last f.regs
    end;
    vc.(row + p) <- j;
    last.(p) <- j;
    if f.blocking then last_blocking := j;
    set_last reg_last rlo j f.regs
  done;
  {
    c_m = m;
    c_pids = Array.sub pids 0 m;
    c_col = col;
    c_vc = vc;
    c_prev = prev;
    c_last = last;
    c_last_blocking = !last_blocking;
    c_reg_lo = rlo;
    c_reg_last = reg_last;
    c_cand = Array.make m (-1);
  }

(* The reversible races of a step of column [own] whose clock row sits in
   [row] at offset [base] ([own] is -1 for a process absent from the
   trace; [own_prev] is its previous step, or -1).  A race (i, j) is
   reversible when no step k, i < k < j, has i -> k -> j in
   happens-before order; only reversible races need backtracking points
   (source-DPOR): deeper races re-appear as reversible ones in the
   re-explored subtrees.

   Only the last step of each other column r that happens before j can be
   a reversible partner — an earlier one reaches j through it — and a
   candidate with no bridge is necessarily dependent with j, since
   happens-before reaches j only through j's dependent predecessors.  Any
   bridge k can be moved to the last step before j of its own column,
   which is j's own previous step or the last such step of a third
   column.  So the candidate of r is bridged iff it happens before one of
   those — O(m²) per step.  The unbridged candidates are left in
   [c_cand]. *)
let find_races c row base ~own ~own_prev =
  let m = c.c_m and vc = c.c_vc in
  for r = 0 to m - 1 do
    let i = row.(base + r) in
    c.c_cand.(r) <- -1;
    if r <> own && i >= 0 then begin
      let bridged = ref (own_prev >= 0 && vc.((own_prev * m) + r) >= i) in
      let t = ref 0 in
      while (not !bridged) && !t < m do
        let k = row.(base + !t) in
        if !t <> r && !t <> own && k >= 0 && vc.((k * m) + r) >= i then bridged := true;
        incr t
      done;
      if not !bridged then c.c_cand.(r) <- i
    end
  done

(* [emit i p] for each race partner [i] in [c_cand], latest first, as a
   backwards scan over the trace finds them. *)
let rec drain c p emit =
  let at = ref (-1) in
  for r = 0 to c.c_m - 1 do
    if c.c_cand.(r) >= 0 && (!at < 0 || c.c_cand.(r) > c.c_cand.(!at)) then at := r
  done;
  if !at >= 0 then begin
    emit c.c_cand.(!at) p;
    c.c_cand.(!at) <- -1;
    drain c p emit
  end

(* Every reversible race [(i, j)] of the trace, as [emit i (pid of j)],
   for [j] in trace order. *)
let iter_races c emit =
  let m = c.c_m in
  for j = 1 to Array.length c.c_col - 1 do
    let own = c.c_col.(j) in
    find_races c c.c_vc (j * m) ~own ~own_prev:c.c_prev.(j);
    drain c c.c_pids.(own) emit
  done

(* The races of the trace against a virtual step [(q, fq)] after its end,
   as [emit i q] (stateful DPOR's virtual steps: a cut run never executed
   its continuation, so the races its race pass would have found against
   the prefix must be reconstructed from the summary).  The virtual row
   joins [q]'s last step and every step dependent with [fq], by the same
   chains as a real step's row. *)
let iter_virtual_races c (q, fq) emit =
  let m = c.c_m and vc = c.c_vc in
  let row = Array.make m (-1) in
  let own = ref (-1) in
  Array.iteri (fun r p -> if p = q then own := r) c.c_pids;
  let own_prev = if !own < 0 then -1 else c.c_last.(!own) in
  join vc m row 0 own_prev;
  if fq.blocking then Array.iter (join vc m row 0) c.c_last
  else begin
    join vc m row 0 c.c_last_blocking;
    join_regs vc m row 0 c.c_reg_lo c.c_reg_last fq.regs
  end;
  find_races c row 0 ~own:!own ~own_prev;
  drain c q emit

let races ?against steps =
  let c =
    clocks ~len:(Array.length steps) ~pid:(fun j -> fst steps.(j)) ~fp:(fun j -> snd steps.(j))
  in
  let acc = ref [] in
  let emit i p = acc := (i, p) :: !acc in
  (match against with None -> iter_races c emit | Some e -> iter_virtual_races c e emit);
  List.rev !acc

(* Summary entries [(pid, footprint)] are numbered once per walk, so a
   summary is a set of ints. *)
type interner = { in_ids : (int * fp, int) Hashtbl.t; in_entries : (int, int * fp) Hashtbl.t }

let intern t e =
  match Hashtbl.find_opt t.in_ids e with
  | Some id -> id
  | None ->
    let id = Hashtbl.length t.in_ids in
    Hashtbl.add t.in_ids e id;
    Hashtbl.add t.in_entries id e;
    id

let entries_of interner ids = List.map (Hashtbl.find interner.in_entries) ids

(* Grow the summary of [v] by [ids], firing the virtual race pass of every
   run cut at [v] and propagating to the summaries of each such run's own
   ancestors, to a fixpoint (summaries grow monotonically within a finite
   footprint universe, so this terminates). *)
let add_sum interner counters bounds v ids =
  let queue = Queue.create () in
  Queue.add (v, ids) queue;
  while not (Queue.is_empty queue) do
    let v, ids = Queue.pop queue in
    let fresh = List.filter (fun id -> not (Hashtbl.mem v.v_set id)) ids in
    if fresh <> [] then begin
      List.iter (fun id -> Hashtbl.replace v.v_set id ()) fresh;
      v.v_sum <- List.rev_append fresh v.v_sum;
      let entries = entries_of interner fresh in
      List.iter
        (fun sub ->
          let emit = request counters bounds sub.s_nodes sub.s_trace in
          List.iter (fun e -> iter_virtual_races sub.s_clocks e emit) entries;
          List.iter (fun (v', _) -> Queue.add (v', fresh) queue) sub.s_marks)
        v.v_subs
    end
  done

(* The per-run summary pass: every marked state along the trace learns the
   steps that followed it; a run cut at a covered state [v] additionally
   learns [v]'s summarized continuation (everything below [v] counts as
   below each of its own ancestors too), races its prefix against that
   summary now, and subscribes for entries [v] gains later.  [suffix.(i)]
   lists the distinct entries of [trace.(i..)], each at its last
   occurrence, in trace order — built in one backward sweep. *)
let update_summaries interner counters bounds nodes trace clocks marks cut =
  let len = Array.length trace in
  let suffix = Array.make (len + 1) [] in
  let seen = Array.make (Hashtbl.length interner.in_ids + len) false in
  for j = len - 1 downto 0 do
    let id = intern interner (trace.(j).t_pid, trace.(j).t_fp) in
    if seen.(id) then suffix.(j) <- suffix.(j + 1)
    else begin
      seen.(id) <- true;
      suffix.(j) <- id :: suffix.(j + 1)
    end
  done;
  List.iter (fun (v, i) -> add_sum interner counters bounds v suffix.(i)) marks;
  match cut with
  | None -> ()
  | Some v ->
    let sub = { s_trace = trace; s_nodes = nodes; s_clocks = clocks; s_marks = marks } in
    v.v_subs <- sub :: v.v_subs;
    (* Entries [v] gains while its summary is pushed to [marks] reach every
       mark through [sub] anyway, so one snapshot serves the whole loop. *)
    let sum = List.rev v.v_sum in
    List.iter
      (fun e -> iter_virtual_races clocks e (request counters bounds nodes trace))
      (entries_of interner sum);
    List.iter (fun (v', _) -> add_sum interner counters bounds v' sum) marks

let explore ?(bounds = no_bounds) ?(max_schedules = 200_000) ~run ~f () =
  let visited = Hashtbl.create 512 in
  let interner = { in_ids = Hashtbl.create 64; in_entries = Hashtbl.create 64 } in
  let counters =
    { c_schedules = 0; c_sleep_blocked = 0; c_deduped = 0; c_elided = 0; c_depth = 0 }
  in
  let root = ref None in
  let total = ref 0 in
  let continue_ = ref true in
  (* The cap stops a walk that still has work: the cut counts as elided, so
     the stats say the walk was not exhaustive. *)
  let capped () =
    let hit = !total >= max_schedules in
    if hit then counters.c_elided <- counters.c_elided + 1;
    hit
  in
  let exec prefix div_sleep =
    incr total;
    let d =
      {
        d_bounds = bounds;
        d_visited = visited;
        d_prefix = prefix;
        d_div_sleep = div_sleep;
        d_sleep = (if prefix = [] then div_sleep else []);
        d_trace = [];
        d_depth = 0;
        d_preempts = 0;
        d_last = None;
        d_counts = Hashtbl.create 16;
        d_status = Running;
        d_marks = [];
        d_cut = None;
        d_pending = None;
      }
    in
    (match run (Dpor d) with
    | Some result ->
      counters.c_schedules <- counters.c_schedules + 1;
      if not (f result) then continue_ := false
    | None -> (
      match d.d_status with
      | Sleep_blocked -> counters.c_sleep_blocked <- counters.c_sleep_blocked + 1
      | Deduped -> counters.c_deduped <- counters.c_deduped + 1
      | Bound_blocked | Running -> counters.c_elided <- counters.c_elided + 1));
    let trace = Array.of_list (List.rev d.d_trace) in
    counters.c_depth <- max counters.c_depth (Array.length trace);
    let nodes = incorporate root trace in
    (* The node after each marked step keeps the step's dedup entry, so a
       later replay through it finds the entry without building a key. *)
    List.iter
      (fun (v, i) -> if i < Array.length nodes then nodes.(i).nd_vent <- Some v)
      d.d_marks;
    let clocks =
      clocks ~len:(Array.length trace) ~pid:(fun j -> trace.(j).t_pid) ~fp:(fun j -> trace.(j).t_fp)
    in
    iter_races clocks (request counters bounds nodes trace);
    if d.d_marks <> [] || d.d_cut <> None then
      update_summaries interner counters bounds nodes trace clocks d.d_marks d.d_cut
  in
  if not (capped ()) then exec [] [];
  (match !root with
  | None -> ()
  | Some r ->
    let rec loop () =
      if !continue_ then
        match find_next r [] with
        | None -> ()
        | Some _ when capped () -> ()
        | Some (path_rev, node, ((p, b) as decision)) ->
          let prefix = List.rev ((p, b, node) :: path_rev) in
          let div_sleep = sleep0_of node ~skip:p in
          exec prefix div_sleep;
          (* The divergence decision must have become an edge; if the runner
             bailed before reaching it, drop the todo rather than loop. *)
          if List.mem decision node.nd_todo then begin
            node.nd_todo <- List.filter (fun d' -> d' <> decision) node.nd_todo;
            counters.c_elided <- counters.c_elided + 1
          end;
          loop ()
    in
    loop ());
  {
    schedules = counters.c_schedules;
    sleep_blocked = counters.c_sleep_blocked;
    deduped = counters.c_deduped;
    elided = counters.c_elided;
    max_depth = counters.c_depth;
  }
