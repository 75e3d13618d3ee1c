(* The sim_fingerprint of each workload at the commit that added this
   benchmark, for the seeds its spreads were measured with.  A change that
   only speeds the simulator up reproduces them.  The benchmark reports
   whether a run matches, and does not fail a run that differs: a change
   that means to alter the simulated outcome alters these too. *)

let fingerprints =
  [
    ("rc-perconn", 1, "76fcd44b7ff96148134e51608adc2c93");
    ("rc-perconn", 2, "59a3a557fed8716efb43f391b948b06c");
    ("rc-perconn", 3, "62b7d2cf38f138cdb6bf6995445d58ea");
    ("rc-perconn", 4, "31b2f038d997f3110b24c5ef59ba69f7");
    ("rc-perconn", 5, "a66353dbc06df3d1a389892de333db8c");
    ("rc-perconn", 6, "8691cc3c4c524e9bb545f45803713115");
    ("rc-perconn", 7, "0df0f4c2b1cecb05215724d75cfa4c7d");
    ("rc-perconn", 8, "2f2aa59e8e2862aebf13bbece4d64e3b");
    ("rc-perconn", 9, "b42130ed968a09993bbf2024bcbf5708");
    ("rc-perconn", 10, "a244598cbbbc175013178697503e1097");
    ("zipf-flash", 1, "f2bc0cca997b2e2aabc505417c8c1a30");
    ("zipf-flash", 2, "82f7ab0af9204f83399d6e40fa160854");
    ("zipf-flash", 3, "e130927d294bb0aab59e730b495c7494");
    ("zipf-flash", 4, "4b42a5a8185ac9fb890456532ff12d6d");
    ("zipf-flash", 5, "16495354c7b83e6ef78d7a394feec90d");
    ("zipf-flash", 6, "d6febb4dbcbbcb54feb38ca90d88f11b");
    ("zipf-flash", 7, "63adc2a1eb0d8592e0e9a3f08db09a3e");
    ("zipf-flash", 8, "a70932a8faa105533cab017792b43fd4");
    ("zipf-flash", 9, "5418c64d68306913a5971fb7ff96ff40");
    ("zipf-flash", 10, "27644c766b5a409c39682a43285f9b5c");
    ("cluster-shards", 1, "dda651a640b8c902fa6dc8fd790a1c02");
    ("cluster-shards", 2, "eaf3040af6f8f89490e7244900c14b19");
    ("cluster-shards", 3, "7483b22afb14d64ac990bff002a24c58");
    ("cluster-shards", 4, "510d5ef901efd795a7d28b3ab0ac7f60");
    ("cluster-shards", 5, "c1b62ba2e60c177d7639658e8839f815");
    ("cluster-shards", 6, "e15f34d5dd34c484000fe9e0201250a1");
    ("cluster-shards", 7, "2dea4ae517e0d4afcd26ea17150c709e");
    ("cluster-shards", 8, "3368714f4a566df4e9a083859e1dec47");
    ("cluster-shards", 9, "d39a87e2773ea0dcc3344e6a89b6a84a");
    ("cluster-shards", 10, "2eab1e34f6b7acdaa839a207d4bb48b8");
  ]

let verdict ~workload ~seed fingerprint =
  match List.find_opt (fun (w, s, _) -> w = workload && s = seed) fingerprints with
  | None -> Printf.sprintf "no reference for seed %d" seed
  | Some (_, _, r) when r = fingerprint -> "matches the reference"
  | Some (_, _, r) -> "differs from the reference " ^ r
