module Pids = Map.Make (Int)

(* Invariant: no pid maps to an empty list, so [Pids.bindings] is exactly
   the non-empty buffers. *)
type t = (int * Value.t) list Pids.t

let empty = Pids.empty

let entries t pid = Option.value ~default:[] (Pids.find_opt pid t)

let set t pid = function [] -> Pids.remove pid t | entries -> Pids.add pid entries t

let push t ~pid r v = Pids.add pid (entries t pid @ [ (r, v) ]) t

let forwarded t ~pid r =
  List.fold_left (fun acc (r', v) -> if r' = r then Some v else acc) None (entries t pid)

let buffered_regs t ~pid = List.sort_uniq Int.compare (List.map fst (entries t pid))

let flushable model t =
  match model with
  | Memory_model.SC -> []
  | Memory_model.TSO ->
    Pids.fold (fun pid entries acc -> (pid, fst (List.hd entries)) :: acc) t [] |> List.rev
  | Memory_model.PSO ->
    Pids.bindings t
    |> List.concat_map (fun (pid, _) -> List.map (fun r -> (pid, r)) (buffered_regs t ~pid))

let take model t ~pid ~reg =
  match (model, entries t pid) with
  | Memory_model.SC, _ -> Error "no store buffers under SC"
  | Memory_model.TSO, (r, v) :: rest when r = reg -> Ok (v, set t pid rest)
  | Memory_model.TSO, (r, _) :: _ ->
    Error (Printf.sprintf "TSO head of p%d's buffer is R%d, not R%d" pid r reg)
  | Memory_model.TSO, [] -> Error (Printf.sprintf "p%d's buffer is empty" pid)
  | Memory_model.PSO, entries ->
    (* The oldest entry for [reg]; entries for other registers keep their
       relative order. *)
    let rec remove_first acc = function
      | [] -> Error (Printf.sprintf "p%d has no buffered write to R%d" pid reg)
      | (r, v) :: rest when r = reg -> Ok (v, set t pid (List.rev_append acc rest))
      | entry :: rest -> remove_first (entry :: acc) rest
    in
    remove_first [] entries

(* The fence path runs on every synchronisation operation under TSO/PSO;
   with nothing buffered anywhere it returns this constant. *)
let nothing_buffered = ([], Pids.empty)

let drain t ~pid =
  match Pids.find_opt pid t with
  | Some entries -> (entries, Pids.remove pid t)
  | None -> if Pids.is_empty t then nothing_buffered else ([], t)

let buffers t = Pids.bindings t

let fences = function
  | Op.Ll _ | Op.Sc _ | Op.Swap _ | Op.Move _ | Op.Fence -> true
  | Op.Validate _ | Op.Write _ -> false

let flush_id ~n ~pid ~reg = (n * (1 + reg)) + pid

let flush_of_id ~n id = if id < n then None else Some (id mod n, (id / n) - 1)
