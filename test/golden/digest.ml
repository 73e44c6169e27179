(* Summarize golden artifacts too large to check in (packet captures,
   event traces, metrics dumps): one line per file with its MD5, byte
   size and line count, in file-name order.

   Usage: digest.exe FILE... *)

let () =
  Array.to_list Sys.argv
  |> List.tl
  |> List.sort (fun a b -> String.compare (Filename.basename a) (Filename.basename b))
  |> List.iter (fun path ->
         let s = In_channel.with_open_bin path In_channel.input_all in
         let lines = String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 s in
         Printf.printf "%s %9d %7d %s\n"
           (Digest.to_hex (Digest.string s))
           (String.length s) lines (Filename.basename path))
