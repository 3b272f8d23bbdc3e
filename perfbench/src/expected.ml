(* Committed expectations: one "key<TAB>row" line per unit key, '#'
   lines are comments. In recording mode lookups are skipped and the
   observed rows are collected for [save]. *)

type t = { tbl : (string, string) Hashtbl.t; recording : bool }

let load ~recording file =
  let tbl = Hashtbl.create 512 in
  if (not recording) && Sys.file_exists file then
    In_channel.with_open_text file (fun ic ->
        In_channel.input_all ic |> String.split_on_char '\n'
        |> List.iter (fun line ->
               match String.index_opt line '\t' with
               | Some i when line.[0] <> '#' ->
                   Hashtbl.replace tbl (String.sub line 0 i)
                     (String.sub line (i + 1) (String.length line - i - 1))
               | _ -> ()));
  { tbl; recording }

let empty () = { tbl = Hashtbl.create 1; recording = false }
let recording t = t.recording
let find t key = Hashtbl.find_opt t.tbl key
let record t key row = Hashtbl.replace t.tbl key row

let save t ~header file =
  let rows =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.tbl [] |> List.sort compare
  in
  Out_channel.with_open_text file (fun oc ->
      List.iter (fun h -> Printf.fprintf oc "# %s\n" h) header;
      List.iter (fun (k, v) -> Printf.fprintf oc "%s\t%s\n" k v) rows)
